//! Runtime-dispatched backends for the execution engine's hot loops.
//!
//! [`crate::engine::Gust`] runs three inner loops per SpMV: the operand
//! gather (stage `x[col]` into a window-local buffer), the single-vector
//! window walk (multiply–crossbar–accumulate per slot), and the batched
//! panel walk (one slot × a register block of [`REG_BLOCK`] right-hand
//! sides). Each is implemented here twice — a safe scalar version that
//! reproduces the PR 2 arithmetic bit for bit, and an `std::arch::x86_64`
//! AVX2+FMA version — and dispatched per window through [`Backend`]
//! (re-exported from [`gust_sparse::kernels`], where detection and the
//! `GUST_BACKEND` override live). [`Backend::Avx512`] runs these `f32`
//! loops on the AVX2 kernels: 16-lane AVX-512 versions lost every
//! measured engine probe to them.
//!
//! The batched panel walk additionally exists in an `f64` variant
//! ([`panel_walk_f64`] / [`stage_panel_f64`]): the schedule's *matrix*
//! values stay `f32` (widened per slot), while operand panels and
//! accumulators are double precision — the element type the engine's
//! generic batch walk (`gust::engine::Element`) is monomorphized over.
//! AVX-512 runs a full block in one 512-bit register; scalar and
//! forced-Avx2 walks share the autovectorized fixed-width scalar body
//! (AVX2 gains too little over it at 4 lanes per register to justify
//! another unsafe path).
//!
//! Both panel walks run every width from 1 to [`REG_BLOCK`] as a kernel
//! monomorphized at that width, with plain loads and stores. None loops
//! over a runtime width: LLVM tail-folds such a loop into masked loads
//! and stores of the accumulator, and a masked store does not forward to
//! the next slot's load of the same adder, so a one-request panel cost
//! more than two full blocks.
//!
//! # Numerical contract
//!
//! * [`gather`] and [`stage_panel`] copy values; they are exact under
//!   every backend.
//! * [`window_walk`] is **bit-identical across backends**: SIMD only
//!   widens the multiplies (IEEE-exact), the scatter adds stay scalar and
//!   in slot order — which is what keeps `Gust::execute` pinned to the
//!   instrumented walk and the `hw::GustPipeline` regardless of backend.
//! * [`panel_walk`] is bit-identical to the scalar path under
//!   [`Backend::Scalar`]; under [`Backend::Avx2`] and [`Backend::Avx512`]
//!   each accumulate is an FMA (one rounding instead of two), so outputs
//!   differ from scalar by at most one ULP per accumulation step — the
//!   bound `tests/backend_equivalence.rs` enforces. [`panel_walk_f64`]
//!   obeys the same contract in double precision. Every width's kernel
//!   rounds a lane as the full block does, so column `j` of a panel is
//!   bit-identical whatever width its register block has
//!   (`tests/batch_equivalence.rs`).
//!
//! # Safety
//!
//! The only `unsafe` in this crate lives in this module's `avx2` and
//! `avx512` submodules (the crate root carries `#![deny(unsafe_code)]`).
//! Every unsafe block is either a call to a `#[target_feature(...)]`
//! function guarded by [`Backend::is_available`] (enabling `avx2,fma`,
//! plus `avx512f,avx512vl` for the avx512 module — exactly the set
//! `Backend::Avx512.is_available()` checks), or a gather/load intrinsic
//! whose indices were validated when the schedule
//! was built: [`crate::ScheduledMatrix`] asserts at construction (release
//! builds included) that every slot column is `< cols`, every `row_mod`
//! is `< length`, and `local_cols` indexes its own gather list by
//! construction — and the engine asserts `x.len() == cols` /
//! `stage.len() == gather_cols.len() · bb` before any kernel runs.
//! AVX-512 masked loads/gathers/stores (the `f64` stage gather's tail)
//! never access masked-out lanes, so a masked tail needs no stronger
//! precondition than the scalar remainder loop it replaces.

#![allow(unsafe_code)]
// Every unsafe block must state the contract it discharges; enforced
// mechanically (clippy) on top of the xtask lint.
#![deny(clippy::undocumented_unsafe_blocks)]

pub use gust_sparse::kernels::{best_available, cpu_features, default_backend, Backend};

/// Register-block width of the batched engine walks: how many right-hand
/// sides one scheduled slot processes per inner-loop step, for `f32` and
/// `f64` panels alike and under every backend. 8 lanes fill one 256-bit
/// `f32` register (AVX2) and one 512-bit `f64` register (AVX-512); a
/// 16-wide `f32` block doubles the interleaved operand panel and loses
/// on both counts measured — it falls out of L2 at the paper's
/// 16 384² shape, and the 16-lane AVX-512 `f32` kernels it fed lost every
/// `perfbench` engine probe to this width on AVX2. Because the width is
/// one constant, a schedule sized for batched execution is the same plan
/// whichever backend built it.
pub const REG_BLOCK: usize = 8;

// The full-block SIMD kernels run `REG_BLOCK / 8` registers per slot,
// and the panel walks' width switch (`at_width!`) lists `1..=8`.
const _: () = assert!(REG_BLOCK == 8);

/// Whether `backend`'s `f32` walk runs the AVX2 kernels: [`Backend::Avx2`]
/// and [`Backend::Avx512`] both do (AVX-512 availability implies
/// `avx2+fma`; only the `f64` panel walk has AVX-512 kernels).
#[cfg(target_arch = "x86_64")]
fn runs_avx2(backend: Backend) -> bool {
    matches!(backend, Backend::Avx2 | Backend::Avx512) && Backend::Avx2.is_available()
}

/// Gathers `dst[i] = src[idx[i]]` — the single-vector operand staging
/// pass. Exact under every backend.
///
/// # Panics
///
/// Panics if `dst.len() != idx.len()` or (scalar path) an index is out of
/// bounds. The AVX2 path requires every `idx` to be in bounds for `src`;
/// the engine only passes schedule gather lists validated at
/// construction.
pub(crate) fn gather(backend: Backend, src: &[f32], idx: &[u32], dst: &mut [f32]) {
    assert_eq!(dst.len(), idx.len(), "gather output length mismatch");
    debug_assert!(idx.iter().all(|&i| (i as usize) < src.len()));
    #[cfg(target_arch = "x86_64")]
    if runs_avx2(backend) {
        // SAFETY: avx2+fma verified; indices validated at schedule build
        // (`ScheduledMatrix::from_parts`) against `cols == src.len()`.
        unsafe { avx2::gather_avx2(src, idx, dst) };
        return;
    }
    let _ = backend;
    for (d, &i) in dst.iter_mut().zip(idx) {
        *d = src[i as usize];
    }
}

/// The single-vector window walk: for each slot `i`,
/// `adders[row_mods[i]] += values[i] * operands[idx[i]]`, in slot order.
///
/// `(idx, operands)` is either `(local_cols, stage)` for a staged window
/// or `(cols, x)` for a direct one. Bit-identical across backends (see
/// the module docs).
///
/// # Panics
///
/// Panics if the slot arrays disagree in length or (scalar path) an index
/// is out of bounds; the AVX2 path bounds-checks the scatter adds and
/// requires in-bounds gather indices, which the schedule guarantees.
pub(crate) fn window_walk(
    backend: Backend,
    values: &[f32],
    idx: &[u32],
    row_mods: &[u32],
    operands: &[f32],
    adders: &mut [f32],
) {
    assert_eq!(values.len(), idx.len(), "slot array length mismatch");
    assert_eq!(values.len(), row_mods.len(), "slot array length mismatch");
    #[cfg(target_arch = "x86_64")]
    if runs_avx2(backend) {
        // SAFETY: avx2+fma verified; gather indices validated at schedule
        // build against the operand array the engine sized to match.
        unsafe { avx2::window_walk_avx2(values, idx, row_mods, operands, adders) };
        return;
    }
    let _ = backend;
    window_walk_scalar(values, idx, row_mods, operands, adders);
}

/// Calls `$walk::<B>(args…)` with the compile-time width `B == $bb`, for
/// every `$bb` in `1..=REG_BLOCK` — the one width switch both panel walks
/// share.
macro_rules! at_width {
    ($bb:expr, $walk:ident($($arg:expr),* $(,)?)) => {
        match $bb {
            1 => $walk::<1>($($arg),*),
            2 => $walk::<2>($($arg),*),
            3 => $walk::<3>($($arg),*),
            4 => $walk::<4>($($arg),*),
            5 => $walk::<5>($($arg),*),
            6 => $walk::<6>($($arg),*),
            7 => $walk::<7>($($arg),*),
            8 => $walk::<8>($($arg),*),
            bb => panic!("panel width {bb} outside 1..={REG_BLOCK}"),
        }
    };
}

/// The batched panel walk: for each slot `i` and each right-hand side
/// `j < bb`,
/// `acc[row_mods[i]·bb + j] += values[i] * operands[idx[i]·bb + j]`.
///
/// Every width `bb` in `1..=REG_BLOCK` runs a kernel monomorphized at
/// that width (see the module docs). The full register block keeps the
/// straight-line AVX2 FMA kernel; narrower widths on the AVX2 tier run
/// [`walk_blocks`] with fused `mul_add` lanes, and the scalar backend
/// runs it unfused at every width.
///
/// # Panics
///
/// Panics if `bb` is outside `1..=REG_BLOCK`, the slot arrays disagree
/// in length, or a slot's operand or accumulator block would fall
/// outside its array.
pub(crate) fn panel_walk(
    backend: Backend,
    values: &[f32],
    idx: &[u32],
    row_mods: &[u32],
    operands: &[f32],
    acc: &mut [f32],
    bb: usize,
) {
    assert_eq!(values.len(), idx.len(), "slot array length mismatch");
    assert_eq!(values.len(), row_mods.len(), "slot array length mismatch");
    at_width!(
        bb,
        panel_walk_at(backend, values, idx, row_mods, operands, acc)
    );
}

/// [`panel_walk`] at the compile-time width `B`: picks the backend's
/// kernel for that width.
fn panel_walk_at<const B: usize>(
    backend: Backend,
    values: &[f32],
    idx: &[u32],
    row_mods: &[u32],
    operands: &[f32],
    acc: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if runs_avx2(backend) {
        if B == REG_BLOCK {
            debug_assert!(idx.iter().all(|&c| (c as usize + 1) * B <= operands.len()));
            debug_assert!(row_mods.iter().all(|&r| (r as usize + 1) * B <= acc.len()));
            // SAFETY: avx2+fma verified. The per-slot block offsets are
            // schedule invariants validated at construction
            // (`ScheduledMatrix::from_parts`): every `idx` is < the
            // operand row count and every `row_mod` < the accumulator row
            // count, and the engine sized both arrays as `rows × bb`.
            unsafe {
                avx2::panel_walk_avx2_const::<{ REG_BLOCK / 8 }>(
                    values, idx, row_mods, operands, acc,
                );
            }
        } else {
            // SAFETY: avx2+fma verified; the kernel bounds-checks every
            // block it touches.
            unsafe { avx2::panel_walk_avx2_narrow::<B>(values, idx, row_mods, operands, acc) };
        }
        return;
    }
    let _ = backend;
    walk_blocks::<f32, B>(values, idx, row_mods, operands, acc, |v, x, a| a + v * x);
}

/// The batched panel walk in double precision: for each slot `i` and each
/// right-hand side `j < bb`,
/// `acc[row_mods[i]·bb + j] += f64(values[i]) * operands[idx[i]·bb + j]`.
///
/// The schedule's matrix values stay `f32` storage (widened once per
/// slot); operands and accumulators are `f64`. Widths dispatch as in
/// [`panel_walk`]: [`Backend::Avx512`] runs its 512-bit FMA kernel on the
/// full register block and fused [`walk_blocks`] on narrower ones;
/// [`Backend::Avx2`] and [`Backend::Scalar`] share the autovectorized
/// unfused [`walk_blocks`] at every width — see the module docs.
///
/// # Panics
///
/// Panics if `bb` is outside `1..=REG_BLOCK`, the slot arrays disagree
/// in length, or a slot's operand or accumulator block would fall
/// outside its array.
pub(crate) fn panel_walk_f64(
    backend: Backend,
    values: &[f32],
    idx: &[u32],
    row_mods: &[u32],
    operands: &[f64],
    acc: &mut [f64],
    bb: usize,
) {
    assert_eq!(values.len(), idx.len(), "slot array length mismatch");
    assert_eq!(values.len(), row_mods.len(), "slot array length mismatch");
    at_width!(
        bb,
        panel_walk_f64_at(backend, values, idx, row_mods, operands, acc)
    );
}

/// [`panel_walk_f64`] at the compile-time width `B`.
fn panel_walk_f64_at<const B: usize>(
    backend: Backend,
    values: &[f32],
    idx: &[u32],
    row_mods: &[u32],
    operands: &[f64],
    acc: &mut [f64],
) {
    #[cfg(target_arch = "x86_64")]
    if backend == Backend::Avx512 && Backend::Avx512.is_available() {
        if B == REG_BLOCK {
            debug_assert!(idx.iter().all(|&c| (c as usize + 1) * B <= operands.len()));
            debug_assert!(row_mods.iter().all(|&r| (r as usize + 1) * B <= acc.len()));
            // SAFETY: avx512f+avx512vl+avx2+fma verified; block offsets
            // are schedule invariants validated at construction, as in
            // `panel_walk_at`.
            unsafe {
                avx512::panel_walk_f64_avx512_const::<{ REG_BLOCK / 8 }>(
                    values, idx, row_mods, operands, acc,
                );
            }
        } else {
            // SAFETY: avx512f+avx512vl+avx2+fma verified; the kernel
            // bounds-checks every block it touches.
            unsafe {
                avx512::panel_walk_f64_avx512_narrow::<B>(values, idx, row_mods, operands, acc);
            }
        }
        return;
    }
    let _ = backend;
    walk_blocks::<f64, B>(values, idx, row_mods, operands, acc, |v, x, a| a + v * x);
}

/// Interleaves one register block of the column-major panel:
/// `xb[i·bb + j] = b[(j0+j)·cols + i]` for all columns `i` — the PR 2
/// whole-panel transpose, used for windows that are not staged.
///
/// Generic over the element type (`f32` / `f64` panels interleave the
/// same way — it is a copy).
///
/// # Panics
///
/// Panics if `xb.len() != cols·bb` or the panel slice is too short.
pub(crate) fn interleave_panel<T: Copy>(b: &[T], cols: usize, j0: usize, bb: usize, xb: &mut [T]) {
    assert_eq!(xb.len(), cols * bb, "interleave buffer length mismatch");
    for j in 0..bb {
        let src = &b[(j0 + j) * cols..(j0 + j + 1) * cols];
        for (i, &v) in src.iter().enumerate() {
            xb[i * bb + j] = v;
        }
    }
}

/// Stages one register block of a window's distinct columns from the
/// column-major panel: `stage[i·bb + j] = b[(j0+j)·cols + gather[i]]`.
/// The gather list is ascending, so each `j` pass reads its panel column
/// monotonically. Exact under every backend.
///
/// # Panics
///
/// Panics if `stage.len() != gather.len()·bb` or (scalar path) an index
/// is out of bounds; the AVX2 path requires in-bounds gather indices,
/// which the schedule guarantees.
pub(crate) fn stage_panel(
    backend: Backend,
    b: &[f32],
    cols: usize,
    j0: usize,
    bb: usize,
    gather_cols: &[u32],
    stage: &mut [f32],
) {
    assert_eq!(
        stage.len(),
        gather_cols.len() * bb,
        "stage buffer length mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    if runs_avx2(backend) {
        for j in 0..bb {
            let src = &b[(j0 + j) * cols..(j0 + j + 1) * cols];
            // SAFETY: avx2+fma verified; gather indices validated at
            // schedule build against `cols == src.len()`.
            unsafe { avx2::gather_strided_avx2(src, gather_cols, stage, bb, j) };
        }
        return;
    }
    let _ = backend;
    for j in 0..bb {
        let src = &b[(j0 + j) * cols..(j0 + j + 1) * cols];
        for (i, &g) in gather_cols.iter().enumerate() {
            stage[i * bb + j] = src[g as usize];
        }
    }
}

/// [`stage_panel`] in double precision: stages one register block of a
/// window's distinct columns from a column-major `f64` panel. Exact under
/// every backend (a copy); AVX-512 runs the gathers 8 lanes per 512-bit
/// register.
///
/// # Panics
///
/// Panics if `stage.len() != gather.len()·bb` or (scalar path) an index
/// is out of bounds; the AVX-512 path requires in-bounds gather indices,
/// which the schedule guarantees.
pub(crate) fn stage_panel_f64(
    backend: Backend,
    b: &[f64],
    cols: usize,
    j0: usize,
    bb: usize,
    gather_cols: &[u32],
    stage: &mut [f64],
) {
    assert_eq!(
        stage.len(),
        gather_cols.len() * bb,
        "stage buffer length mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    if backend == Backend::Avx512 && Backend::Avx512.is_available() {
        for j in 0..bb {
            let src = &b[(j0 + j) * cols..(j0 + j + 1) * cols];
            // SAFETY: avx512f+avx512vl+avx2+fma verified; gather indices
            // validated at schedule build against `cols == src.len()`.
            unsafe { avx512::gather_strided_avx512_pd(src, gather_cols, stage, bb, j) };
        }
        return;
    }
    let _ = backend;
    for j in 0..bb {
        let src = &b[(j0 + j) * cols..(j0 + j + 1) * cols];
        for (i, &g) in gather_cols.iter().enumerate() {
            stage[i * bb + j] = src[g as usize];
        }
    }
}

/// Dumps one window's active accumulator rows into the column-major
/// output block through the row permutation:
/// `y_block[j·rows_total + row_perm[i]] = acc[i·bb + j]` for every
/// active local row `i` and right-hand side `j < bb`, where `row_perm`
/// is the window's slice of the schedule's permutation. A copy, exact
/// under every backend.
///
/// # Panics
///
/// Panics if `acc` is not `row_perm.len()·bb` long or a permuted row
/// falls outside a `rows_total`-row output column.
pub(crate) fn scatter_panel<T: Copy>(
    acc: &[T],
    row_perm: &[u32],
    rows_total: usize,
    bb: usize,
    y_block: &mut [T],
) {
    assert_eq!(
        acc.len(),
        row_perm.len() * bb,
        "accumulator block length mismatch"
    );
    for (acc_row, &perm) in acc.chunks_exact(bb).zip(row_perm) {
        let orig = perm as usize;
        for (j, &v) in acc_row.iter().enumerate() {
            y_block[j * rows_total + orig] = v;
        }
    }
}

/// The PR 2 single-vector inner loop, verbatim: four independent
/// multiply-gathers per step, scatter adds in slot order.
fn window_walk_scalar(
    values: &[f32],
    idx: &[u32],
    row_mods: &[u32],
    operands: &[f32],
    adders: &mut [f32],
) {
    let mut chunks_v = values.chunks_exact(4);
    let mut chunks_c = idx.chunks_exact(4);
    let mut chunks_r = row_mods.chunks_exact(4);
    for ((v, c), r) in (&mut chunks_v).zip(&mut chunks_c).zip(&mut chunks_r) {
        let p0 = v[0] * operands[c[0] as usize];
        let p1 = v[1] * operands[c[1] as usize];
        let p2 = v[2] * operands[c[2] as usize];
        let p3 = v[3] * operands[c[3] as usize];
        adders[r[0] as usize] += p0;
        adders[r[1] as usize] += p1;
        adders[r[2] as usize] += p2;
        adders[r[3] as usize] += p3;
    }
    for ((&v, &c), &r) in chunks_v
        .remainder()
        .iter()
        .zip(chunks_c.remainder())
        .zip(chunks_r.remainder())
    {
        adders[r as usize] += v * operands[c as usize];
    }
}

/// The panel walk at the compile-time width `B` that every kernel but
/// the full-block SIMD ones runs: per slot, `a[j] = lane(v, x[j], a[j])`
/// over bounds-checked `[T; B]` blocks, with `v` widened once. A fixed
/// `B` lowers the lane loop to straight-line code with plain loads and
/// stores. `lane` is `a + v·x` (two roundings) on the scalar path and a
/// fused `mul_add` inside the SIMD tiers' `#[target_feature]` kernels,
/// which inline this body and so compile it for their feature set.
#[inline(always)]
fn walk_blocks<T: Copy + From<f32>, const B: usize>(
    values: &[f32],
    idx: &[u32],
    row_mods: &[u32],
    operands: &[T],
    acc: &mut [T],
    lane: impl Fn(T, T, T) -> T,
) {
    for ((&v, &c), &r) in values.iter().zip(idx).zip(row_mods) {
        let v = T::from(v);
        let x: &[T; B] = operands[c as usize * B..c as usize * B + B]
            .try_into()
            .expect("block-sized operand slice");
        let a: &mut [T; B] = (&mut acc[r as usize * B..r as usize * B + B])
            .try_into()
            .expect("block-sized accumulator slice");
        for (aj, &xj) in a.iter_mut().zip(x) {
            *aj = lane(v, xj, *aj);
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! AVX2+FMA engine kernels. Every function is
    //! `#[target_feature(enable = "avx2,fma")]` and only called after
    //! [`super::Backend::is_available`] returned `true`; gather indices
    //! are schedule invariants validated at construction (see the module
    //! docs).

    use std::arch::x86_64::{
        _mm256_fmadd_ps, _mm256_i32gather_ps, _mm256_loadu_ps, _mm256_loadu_si256, _mm256_mul_ps,
        _mm256_set1_ps, _mm256_storeu_ps,
    };

    /// 8-wide `dst[i] = src[idx[i]]`.
    ///
    /// # Safety
    ///
    /// Caller verified avx2+fma and that every index is `< src.len()`;
    /// `dst.len() == idx.len()` is asserted by the dispatcher.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn gather_avx2(src: &[f32], idx: &[u32], dst: &mut [f32]) {
        let mut chunks_i = idx.chunks_exact(8);
        let mut chunks_d = dst.chunks_exact_mut(8);
        for (i, d) in (&mut chunks_i).zip(&mut chunks_d) {
            let iv = _mm256_loadu_si256(i.as_ptr().cast());
            let g = _mm256_i32gather_ps::<4>(src.as_ptr(), iv);
            _mm256_storeu_ps(d.as_mut_ptr(), g);
        }
        for (&i, d) in chunks_i.remainder().iter().zip(chunks_d.into_remainder()) {
            *d = src[i as usize];
        }
    }

    /// Strided gather for the panel stage: `stage[i·bb + j] =
    /// src[gather[i]]` for all `i`, one right-hand side `j` at a time.
    /// The vector gather hides the latency of the scattered reads; the
    /// strided stores stay scalar (AVX2 has no scatter).
    ///
    /// # Safety
    ///
    /// Caller verified avx2+fma, every gather index `< src.len()`, and
    /// `stage.len() == gather.len()·bb` with `j < bb`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn gather_strided_avx2(
        src: &[f32],
        gather: &[u32],
        stage: &mut [f32],
        bb: usize,
        j: usize,
    ) {
        let mut buf = [0.0f32; 8];
        let mut chunks = gather.chunks_exact(8);
        let mut i = 0usize;
        for g in &mut chunks {
            let iv = _mm256_loadu_si256(g.as_ptr().cast());
            let vals = _mm256_i32gather_ps::<4>(src.as_ptr(), iv);
            _mm256_storeu_ps(buf.as_mut_ptr(), vals);
            for (k, &v) in buf.iter().enumerate() {
                stage[(i + k) * bb + j] = v;
            }
            i += 8;
        }
        for &g in chunks.remainder() {
            stage[i * bb + j] = src[g as usize];
            i += 1;
        }
    }

    /// 8-slot single-vector walk: gather + multiply vectorized, scatter
    /// adds scalar and in slot order — bit-identical to the scalar path.
    ///
    /// # Safety
    ///
    /// Caller verified avx2+fma and that every gather index is
    /// `< operands.len()`. Scatter adds use bounds-checked indexing.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn window_walk_avx2(
        values: &[f32],
        idx: &[u32],
        row_mods: &[u32],
        operands: &[f32],
        adders: &mut [f32],
    ) {
        let mut buf = [0.0f32; 8];
        let mut chunks_v = values.chunks_exact(8);
        let mut chunks_c = idx.chunks_exact(8);
        let mut chunks_r = row_mods.chunks_exact(8);
        for ((v, c), r) in (&mut chunks_v).zip(&mut chunks_c).zip(&mut chunks_r) {
            let iv = _mm256_loadu_si256(c.as_ptr().cast());
            let xs = _mm256_i32gather_ps::<4>(operands.as_ptr(), iv);
            let p = _mm256_mul_ps(_mm256_loadu_ps(v.as_ptr()), xs);
            _mm256_storeu_ps(buf.as_mut_ptr(), p);
            for (k, &rm) in r.iter().enumerate() {
                adders[rm as usize] += buf[k];
            }
        }
        for ((&v, &c), &r) in chunks_v
            .remainder()
            .iter()
            .zip(chunks_c.remainder())
            .zip(chunks_r.remainder())
        {
            adders[r as usize] += v * operands[c as usize];
        }
    }

    /// Panel walk at a compile-time width of `NREG` 256-bit registers
    /// (`bb = 8·NREG`): per slot, `NREG` straight-line FMAs with no
    /// per-lane branching — the full-register-block fast path.
    ///
    /// # Safety
    ///
    /// Caller verified avx2+fma and that for every slot,
    /// `(idx[i]+1)·8·NREG ≤ operands.len()` and
    /// `(row_mods[i]+1)·8·NREG ≤ acc.len()` (schedule invariants,
    /// debug-asserted by the dispatcher).
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn panel_walk_avx2_const<const NREG: usize>(
        values: &[f32],
        idx: &[u32],
        row_mods: &[u32],
        operands: &[f32],
        acc: &mut [f32],
    ) {
        let op = operands.as_ptr();
        let ac = acc.as_mut_ptr();
        for ((&v, &c), &r) in values.iter().zip(idx).zip(row_mods) {
            let vv = _mm256_set1_ps(v);
            let xp = op.add(c as usize * (NREG * 8));
            let ap = ac.add(r as usize * (NREG * 8));
            for k in 0..NREG {
                let av = _mm256_loadu_ps(ap.add(8 * k));
                let xv = _mm256_loadu_ps(xp.add(8 * k));
                _mm256_storeu_ps(ap.add(8 * k), _mm256_fmadd_ps(vv, xv, av));
            }
        }
    }

    /// Panel walk at a compile-time width `B < 8`, below one 256-bit
    /// register: per slot, `B` fused `mul_add`s on fixed-size blocks —
    /// the same single rounding per accumulate as the full-block FMA —
    /// with plain loads and stores (see the module docs).
    ///
    /// # Safety
    ///
    /// Caller verified avx2+fma. The kernel performs no raw memory access:
    /// every block is taken by bounds-checked slicing.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn panel_walk_avx2_narrow<const B: usize>(
        values: &[f32],
        idx: &[u32],
        row_mods: &[u32],
        operands: &[f32],
        acc: &mut [f32],
    ) {
        super::walk_blocks::<f32, B>(values, idx, row_mods, operands, acc, f32::mul_add);
    }
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    //! AVX-512 engine kernels for the `f64` panel walk (the `f32` walk
    //! runs the AVX2 kernels under [`super::Backend::Avx512`]). Every
    //! function is `#[target_feature(enable = "avx512f,avx512vl,avx2,fma")]`
    //! — the exact set [`super::Backend::Avx512.is_available`] checks —
    //! and only called after that check returned `true`; gather indices
    //! are schedule invariants validated at construction (see the module
    //! docs). The stage gather's ragged tail uses masked loads, gathers
    //! and stores: masked-out lanes never touch memory, so its
    //! preconditions match the scalar remainder loop the masks replace.

    use std::arch::x86_64::{
        __mmask8, _mm256_loadu_si256, _mm256_maskz_loadu_epi32, _mm512_fmadd_pd,
        _mm512_i32gather_pd, _mm512_loadu_pd, _mm512_mask_i32gather_pd, _mm512_mask_storeu_pd,
        _mm512_set1_pd, _mm512_setzero_pd, _mm512_storeu_pd,
    };

    /// Strided gather for the `f64` panel stage: `stage[i·bb + j] =
    /// src[gather[i]]`, one right-hand side `j` at a time — 8 double
    /// lanes per 512-bit gather, indices in one 256-bit register, masked
    /// on the tail. Stores stay scalar (the stride defeats a vector
    /// store).
    ///
    /// # Safety
    ///
    /// Caller verified the avx512 feature set, every gather index
    /// `< src.len()`, and `stage.len() == gather.len()·bb` with `j < bb`.
    /// Masked-out tail lanes access no memory.
    #[target_feature(enable = "avx512f,avx512vl,avx2,fma")]
    pub(super) unsafe fn gather_strided_avx512_pd(
        src: &[f64],
        gather: &[u32],
        stage: &mut [f64],
        bb: usize,
        j: usize,
    ) {
        let mut buf = [0.0f64; 8];
        let n = gather.len();
        let full = n / 8 * 8;
        let mut i = 0usize;
        while i < full {
            let iv = _mm256_loadu_si256(gather.as_ptr().add(i).cast());
            let vals = _mm512_i32gather_pd::<8>(iv, src.as_ptr().cast());
            _mm512_storeu_pd(buf.as_mut_ptr(), vals);
            for (k, &v) in buf.iter().enumerate() {
                stage[(i + k) * bb + j] = v;
            }
            i += 8;
        }
        let rem = n - full;
        if rem > 0 {
            let m: __mmask8 = (1u8 << rem) - 1;
            let iv = _mm256_maskz_loadu_epi32(m, gather.as_ptr().add(full).cast());
            let vals =
                _mm512_mask_i32gather_pd::<8>(_mm512_setzero_pd(), m, iv, src.as_ptr().cast());
            _mm512_mask_storeu_pd(buf.as_mut_ptr(), m, vals);
            for (k, &v) in buf[..rem].iter().enumerate() {
                stage[(full + k) * bb + j] = v;
            }
        }
    }

    /// f64 panel walk at a compile-time width of `NREG` 512-bit `pd`
    /// registers (`bb = 8·NREG`): the slot value is widened once, then
    /// `NREG` straight-line double-precision FMAs per slot.
    ///
    /// # Safety
    ///
    /// Caller verified the avx512 feature set and that for every slot,
    /// `(idx[i]+1)·8·NREG ≤ operands.len()` and
    /// `(row_mods[i]+1)·8·NREG ≤ acc.len()` (schedule invariants,
    /// debug-asserted by the dispatcher).
    #[target_feature(enable = "avx512f,avx512vl,avx2,fma")]
    pub(super) unsafe fn panel_walk_f64_avx512_const<const NREG: usize>(
        values: &[f32],
        idx: &[u32],
        row_mods: &[u32],
        operands: &[f64],
        acc: &mut [f64],
    ) {
        let op = operands.as_ptr();
        let ac = acc.as_mut_ptr();
        for ((&v, &c), &r) in values.iter().zip(idx).zip(row_mods) {
            let vv = _mm512_set1_pd(f64::from(v));
            let xp = op.add(c as usize * (NREG * 8));
            let ap = ac.add(r as usize * (NREG * 8));
            for k in 0..NREG {
                let av = _mm512_loadu_pd(ap.add(8 * k));
                let xv = _mm512_loadu_pd(xp.add(8 * k));
                _mm512_storeu_pd(ap.add(8 * k), _mm512_fmadd_pd(vv, xv, av));
            }
        }
    }

    /// f64 panel walk at a compile-time width `B < 8`, below one 512-bit
    /// `pd` register: per slot, the value is widened once, then `B` fused
    /// `mul_add`s on fixed-size blocks with plain loads and stores — the
    /// same single rounding per accumulate as the full-block FMA.
    ///
    /// # Safety
    ///
    /// Caller verified the avx512 feature set. The kernel performs no raw
    /// memory access: every block is taken by bounds-checked slicing.
    #[target_feature(enable = "avx512f,avx512vl,avx2,fma")]
    pub(super) unsafe fn panel_walk_f64_avx512_narrow<const B: usize>(
        values: &[f32],
        idx: &[u32],
        row_mods: &[u32],
        operands: &[f64],
        acc: &mut [f64],
    ) {
        super::walk_blocks::<f64, B>(values, idx, row_mods, operands, acc, f64::mul_add);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn both_backends() -> Vec<Backend> {
        let mut v = vec![Backend::Scalar];
        if Backend::Avx2.is_available() {
            v.push(Backend::Avx2);
        }
        if Backend::Avx512.is_available() {
            v.push(Backend::Avx512);
        }
        v
    }

    #[test]
    fn gather_copies_by_index_under_every_backend() {
        let src: Vec<f32> = (0..40).map(|i| i as f32 * 0.5).collect();
        let idx: Vec<u32> = vec![3, 0, 39, 17, 17, 8, 21, 30, 5, 1, 2];
        for backend in both_backends() {
            let mut dst = vec![0.0f32; idx.len()];
            gather(backend, &src, &idx, &mut dst);
            let expected: Vec<f32> = idx.iter().map(|&i| src[i as usize]).collect();
            assert_eq!(dst, expected, "{}", backend.name());
        }
    }

    #[test]
    fn window_walk_is_bit_identical_across_backends() {
        let n = 37;
        let values: Vec<f32> = (0..n).map(|i| (i as f32).sin()).collect();
        let idx: Vec<u32> = (0..n as u32).map(|i| (i * 13) % 29).collect();
        let row_mods: Vec<u32> = (0..n as u32).map(|i| (i * 7) % 16).collect();
        let operands: Vec<f32> = (0..29).map(|i| (i as f32).cos()).collect();
        let mut expected = vec![0.0f32; 16];
        window_walk(
            Backend::Scalar,
            &values,
            &idx,
            &row_mods,
            &operands,
            &mut expected,
        );
        for backend in both_backends() {
            let mut adders = vec![0.0f32; 16];
            window_walk(backend, &values, &idx, &row_mods, &operands, &mut adders);
            assert_eq!(adders, expected, "{}", backend.name());
        }
    }

    #[test]
    fn panel_walk_full_block_and_tail_agree_with_naive() {
        for backend in both_backends() {
            for bb in 1..=REG_BLOCK {
                let slots = 23;
                let u = 9;
                let l = 6;
                let values: Vec<f32> = (0..slots).map(|i| 0.25 + i as f32 * 0.125).collect();
                let idx: Vec<u32> = (0..slots as u32).map(|i| (i * 5) % u as u32).collect();
                let row_mods: Vec<u32> = (0..slots as u32).map(|i| (i * 3) % l as u32).collect();
                let operands: Vec<f32> = (0..u * bb).map(|i| (i as f32 * 0.375).sin()).collect();
                let mut acc = vec![0.0f32; l * bb];
                panel_walk(backend, &values, &idx, &row_mods, &operands, &mut acc, bb);

                // Naive double-precision oracle with a loose bound (FMA
                // contraction under AVX2 stays well inside it).
                let mut oracle = vec![0.0f64; l * bb];
                for s in 0..slots {
                    for j in 0..bb {
                        oracle[row_mods[s] as usize * bb + j] +=
                            f64::from(values[s]) * f64::from(operands[idx[s] as usize * bb + j]);
                    }
                }
                for (a, o) in acc.iter().zip(&oracle) {
                    assert!(
                        (f64::from(*a) - o).abs() < 1e-4,
                        "{} bb={bb}: {a} vs {o}",
                        backend.name()
                    );
                }
            }
        }
    }

    #[test]
    fn panel_walk_f64_agrees_with_naive_under_every_backend() {
        for backend in both_backends() {
            for bb in 1..=REG_BLOCK {
                let slots = 23;
                let u = 9;
                let l = 6;
                let values: Vec<f32> = (0..slots).map(|i| 0.25 + i as f32 * 0.125).collect();
                let idx: Vec<u32> = (0..slots as u32).map(|i| (i * 5) % u as u32).collect();
                let row_mods: Vec<u32> = (0..slots as u32).map(|i| (i * 3) % l as u32).collect();
                let operands: Vec<f64> = (0..u * bb).map(|i| (i as f64 * 0.375).sin()).collect();
                let mut acc = vec![0.0f64; l * bb];
                panel_walk_f64(backend, &values, &idx, &row_mods, &operands, &mut acc, bb);

                let mut oracle = vec![0.0f64; l * bb];
                for s in 0..slots {
                    for j in 0..bb {
                        oracle[row_mods[s] as usize * bb + j] +=
                            f64::from(values[s]) * operands[idx[s] as usize * bb + j];
                    }
                }
                for (a, o) in acc.iter().zip(&oracle) {
                    // Scalar/AVX-512 differ only by FMA contraction; the
                    // oracle is the exact same double arithmetic.
                    assert!(
                        (a - o).abs() < 1e-12 * o.abs().max(1.0),
                        "{} bb={bb}: {a} vs {o}",
                        backend.name()
                    );
                }
            }
        }
    }

    /// One slot on a 1×1 block at width `bb`: the operand and
    /// accumulator arrays are sized for `bb`, so only the width check
    /// can reject it.
    fn walk_one_slot(bb: usize) {
        let mut acc = vec![0.0f32; bb];
        panel_walk(
            Backend::Scalar,
            &[1.0],
            &[0],
            &[0],
            &vec![1.0f32; bb],
            &mut acc,
            bb,
        );
    }

    fn walk_one_slot_f64(bb: usize) {
        let mut acc = vec![0.0f64; bb];
        panel_walk_f64(
            Backend::Scalar,
            &[1.0],
            &[0],
            &[0],
            &vec![1.0f64; bb],
            &mut acc,
            bb,
        );
    }

    #[test]
    #[should_panic(expected = "panel width 0 outside")]
    fn panel_walk_rejects_width_zero() {
        walk_one_slot(0);
    }

    #[test]
    #[should_panic(expected = "panel width 9 outside")]
    fn panel_walk_rejects_widths_above_the_register_block() {
        walk_one_slot(REG_BLOCK + 1);
    }

    #[test]
    #[should_panic(expected = "panel width 0 outside")]
    fn panel_walk_f64_rejects_width_zero() {
        walk_one_slot_f64(0);
    }

    #[test]
    #[should_panic(expected = "panel width 9 outside")]
    fn panel_walk_f64_rejects_widths_above_the_register_block() {
        walk_one_slot_f64(REG_BLOCK + 1);
    }

    #[test]
    fn stage_panel_f64_matches_the_scalar_copy() {
        let cols = 29;
        let bb = 5;
        let b: Vec<f64> = (0..cols * (bb + 1)).map(|i| i as f64 * 0.25).collect();
        let gather: Vec<u32> = (0..cols as u32).filter(|i| i % 3 != 1).collect();
        let mut expected = vec![0.0f64; gather.len() * bb];
        stage_panel_f64(Backend::Scalar, &b, cols, 1, bb, &gather, &mut expected);
        for j in 0..bb {
            for (i, &g) in gather.iter().enumerate() {
                assert_eq!(expected[i * bb + j], b[(1 + j) * cols + g as usize]);
            }
        }
        for backend in both_backends() {
            let mut stage = vec![0.0f64; gather.len() * bb];
            stage_panel_f64(backend, &b, cols, 1, bb, &gather, &mut stage);
            assert_eq!(stage, expected, "{}", backend.name());
        }
    }

    #[test]
    fn scatter_panel_places_rows_through_the_permutation() {
        let bb = 3;
        let rows_total = 10;
        let acc: Vec<f32> = (0..2 * bb).map(|i| i as f32).collect();
        let row_perm = [7u32, 4];
        let mut y = vec![-1.0f32; rows_total * bb];
        scatter_panel(&acc, &row_perm, rows_total, bb, &mut y);
        for j in 0..bb {
            assert_eq!(y[j * rows_total + 7], acc[j], "local row 0 → row 7");
            assert_eq!(y[j * rows_total + 4], acc[bb + j], "local row 1 → row 4");
        }
        // Exactly 2·bb cells written.
        assert_eq!(y.iter().filter(|&&v| v != -1.0).count(), 2 * bb);
    }

    #[test]
    fn stage_panel_matches_interleave_on_identity_gather() {
        let cols = 13;
        let bb = 5;
        let b: Vec<f32> = (0..cols * (bb + 2)).map(|i| i as f32 * 0.25).collect();
        let gather_all: Vec<u32> = (0..cols as u32).collect();
        for backend in both_backends() {
            let mut stage = vec![0.0f32; cols * bb];
            stage_panel(backend, &b, cols, 1, bb, &gather_all, &mut stage);
            let mut xb = vec![0.0f32; cols * bb];
            interleave_panel(&b, cols, 1, bb, &mut xb);
            assert_eq!(stage, xb, "{}", backend.name());
        }
    }
}
