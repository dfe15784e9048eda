//! Backend-equivalence properties: the numerical contract of the
//! runtime-dispatched kernel backends.
//!
//! Three tiers, from strictest to loosest:
//!
//! 1. **Forced scalar is the seed, bit for bit.** `Backend::Scalar`
//!    reproduces the pre-backend arithmetic exactly: the engine's fast
//!    path equals the instrumented per-cycle walk, batched columns equal
//!    per-vector runs, and the reference CSR kernel equals the seed
//!    4-wide unrolled loop (re-implemented here as an independent
//!    oracle).
//! 2. **Order-preserving kernels are backend-invariant.** Kernels whose
//!    accumulation order is observable — the single-vector engine walk
//!    and the CSC column scatter — vectorize only their multiplies (which
//!    are IEEE-exact, masked AVX-512 tail lanes included), so their
//!    outputs are bit-identical under *every* backend.
//! 3. **FMA kernels match scalar within a documented ULP bound.** The
//!    AVX2/AVX-512 batched panel walks and CSR row reductions fuse
//!    multiply and add (one rounding instead of two) and re-associate row
//!    sums. Each accumulation step can shift the partial sum by at most
//!    1 ULP, so on cancellation-free inputs a row of `k` non-zeros
//!    diverges from the scalar result by a relative error of at most
//!    about `k · 2⁻²³`; the tests below enforce `4 · k_max · ε_f32` (the
//!    factor 4 covers both paths' distance from the exact sum) across
//!    uniform / power-law / R-MAT matrices and batch sizes 1, 8, 16
//!    and 17. The f64 leg applies the same reasoning at `ε_f64`.
//!
//! On hosts without AVX2+FMA (or the AVX-512 feature set) the missing
//! SIMD assertions skip gracefully (the scalar tier still runs), so the
//! suite passes on every target — which is exactly what the
//! `GUST_BACKEND` CI matrix legs rely on.

use gust::prelude::*;
use gust_repro::prelude::*;

/// The SIMD backends runnable on this host (possibly none).
fn simd_backends() -> Vec<Backend> {
    [Backend::Avx2, Backend::Avx512]
        .into_iter()
        .filter(|b| b.is_available())
        .collect()
}

/// Deterministic strictly positive vector (cancellation-free inputs make
/// the ULP bound of tier 3 rigorous).
fn positive_vector(n: usize, seed: u64) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let h = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ seed;
            0.125 + ((h % 1000) as f32) / 400.0
        })
        .collect()
}

/// Column-major panel of positive vectors.
fn positive_panel(cols: usize, batch: usize, seed: u64) -> Vec<f32> {
    (0..batch)
        .flat_map(|j| positive_vector(cols, seed.wrapping_add(j as u64 * 7919)))
        .collect()
}

/// The three generator families, with all values made strictly positive.
fn positive_matrix(kind: usize, rows: usize, cols: usize, nnz: usize, seed: u64) -> CsrMatrix {
    let coo = match kind {
        0 => gen::uniform(rows, cols, nnz, seed),
        1 => gen::power_law(rows, cols, nnz, 1.9, seed),
        _ => gen::rmat(rows, cols, nnz, seed),
    };
    let positive = CooMatrix::from_triplets(
        rows,
        cols,
        coo.iter().map(|(r, c, v)| (r, c, v.abs() + 0.0625)),
    )
    .expect("triplets stay in bounds");
    CsrMatrix::from(&positive)
}

/// Largest row length — the `k` of the tier-3 ULP bound.
fn max_row_nnz(m: &CsrMatrix) -> usize {
    (0..m.rows()).map(|r| m.row_nnz(r)).max().unwrap_or(0)
}

/// Tier-3 bound: `4 · k_max · ε_f32`.
fn ulp_bound(m: &CsrMatrix) -> f64 {
    4.0 * max_row_nnz(m) as f64 * f64::from(f32::EPSILON)
}

#[test]
fn forced_scalar_engine_is_bit_identical_to_seed_paths() {
    for kind in 0..3usize {
        let matrix = positive_matrix(kind, 70, 75, 560, 41 + kind as u64);
        let scalar = Gust::new(GustConfig::new(8).with_backend(Some(Backend::Scalar)));
        let schedule = scalar.schedule(&matrix);
        let x = positive_vector(75, 5);
        // The instrumented engine is the seed's literal per-cycle walk.
        let fast = scalar.execute(&schedule, &x);
        let seed_walk = scalar.execute_instrumented(&schedule, &x);
        assert_eq!(
            fast.output, seed_walk.output,
            "kind {kind}: scalar != seed walk"
        );
        assert_eq!(fast.report, seed_walk.report, "kind {kind}: reports differ");
        // Batched columns equal per-vector runs, bit for bit.
        for batch in [1usize, 3, 8] {
            let panel = positive_panel(75, batch, 17);
            let (y, _) = scalar.execute_batch(&schedule, &panel, batch);
            for j in 0..batch {
                let single = scalar.execute(&schedule, &panel[j * 75..(j + 1) * 75]);
                assert_eq!(
                    &y[j * 70..(j + 1) * 70],
                    single.output.as_slice(),
                    "kind {kind} batch {batch} column {j}"
                );
            }
        }
    }
}

/// A wide hub-concentrated matrix: a 160 000-column input block, and
/// every window's non-zeros land on 96 hub columns, so each column is
/// reused many times within a window and the reads scatter far apart.
fn hub_matrix() -> CsrMatrix {
    let rows = 64;
    let cols = 160_000;
    let hubs = 96;
    let per_row = 48;
    let mut coo = CooMatrix::new(rows, cols);
    for r in 0..rows {
        for k in 0..per_row {
            // Stride 11 is coprime to 96, so a row never repeats a hub.
            let hub = (r * 31 + k * 11) % hubs;
            let col = hub * (cols / hubs);
            let value = 0.0625 + ((r * per_row + k) % 23) as f32 / 16.0;
            coo.push(r, col, value).expect("in bounds");
        }
    }
    CsrMatrix::from(&coo)
}

#[test]
fn wide_hub_walks_match_the_instrumented_walk_and_per_vector_runs() {
    let matrix = hub_matrix();
    let x = positive_vector(matrix.cols(), 19);
    for backend in [Backend::Scalar, Backend::Avx2, Backend::Avx512] {
        if !backend.is_available() {
            continue;
        }
        let gust = Gust::new(GustConfig::new(16).with_backend(Some(backend)));
        let schedule = gust.schedule(&matrix);
        // The fast walk must match the instrumented walk bit for bit.
        let fast = gust.execute(&schedule, &x);
        let instrumented = gust.execute_instrumented(&schedule, &x);
        assert_eq!(fast.output, instrumented.output, "{}", backend.name());
        assert_vectors_close(&fast.output, &reference_spmv(&matrix, &x), 1e-4);
        // Batched walks under the scalar backend stay bit-identical
        // to per-vector runs; under AVX2 it matches within the FMA bound.
        for batch in [1usize, 5, 8] {
            let panel = positive_panel(matrix.cols(), batch, 37);
            let (y, _) = gust.execute_batch(&schedule, &panel, batch);
            for j in 0..batch {
                let col = &panel[j * matrix.cols()..(j + 1) * matrix.cols()];
                let single = gust.execute(&schedule, col);
                let got = &y[j * matrix.rows()..(j + 1) * matrix.rows()];
                if backend == Backend::Scalar {
                    assert_eq!(got, single.output.as_slice(), "batch {batch} column {j}");
                } else {
                    let err = max_relative_error(got, &single.output);
                    assert!(err <= ulp_bound(&matrix), "batch {batch} column {j}: {err}");
                }
            }
        }
    }
}

#[test]
fn forced_scalar_csr_kernel_matches_seed_arithmetic() {
    let matrix = positive_matrix(0, 60, 64, 700, 77);
    let x = positive_vector(64, 9);
    let got = matrix.spmv_with(Backend::Scalar, &x);
    // Independent re-implementation of the seed loop: four partial sums,
    // combined as (a0+a1)+(a2+a3)+tail.
    let oracle: Vec<f32> = (0..matrix.rows())
        .map(|r| {
            let (cols, vals) = matrix.row(r);
            let mut acc = [0.0f32; 4];
            for (k, (&c, &v)) in cols.iter().zip(vals).enumerate() {
                if k < cols.len() / 4 * 4 {
                    acc[k % 4] += v * x[c as usize];
                }
            }
            let mut tail = 0.0f32;
            for (&c, &v) in cols.iter().zip(vals).skip(cols.len() / 4 * 4) {
                tail += v * x[c as usize];
            }
            (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
        })
        .collect();
    assert_eq!(
        got, oracle,
        "scalar CSR kernel drifted from the seed arithmetic"
    );
}

#[test]
fn single_vector_engine_is_backend_invariant() {
    let simd = simd_backends();
    if simd.is_empty() {
        eprintln!("no SIMD backend on this host; scalar-only run, skipping");
        return;
    }
    for kind in 0..3usize {
        // 45 rows at l = 8 forces a ragged final window too.
        let matrix = positive_matrix(kind, 45, 45, 500, 23 + kind as u64);
        let x = positive_vector(45, 3);
        let scalar = Gust::new(GustConfig::new(8).with_backend(Some(Backend::Scalar)));
        let schedule = scalar.schedule(&matrix);
        let a = scalar.execute(&schedule, &x);
        for &backend in &simd {
            let wide = Gust::new(GustConfig::new(8).with_backend(Some(backend)));
            let b = wide.execute(&schedule, &x);
            assert_eq!(
                a.output,
                b.output,
                "kind {kind} / {}: single-vector walk must be bit-identical across backends",
                backend.name()
            );
            assert_eq!(a.report, b.report);
        }
    }
}

#[test]
fn csc_spmv_is_backend_invariant() {
    let simd = simd_backends();
    if simd.is_empty() {
        eprintln!("no SIMD backend on this host; scalar-only run, skipping");
        return;
    }
    let matrix = positive_matrix(1, 80, 70, 900, 31);
    let csc = CscMatrix::from(&matrix);
    let x = positive_vector(70, 13);
    let reference = csc.spmv_with(Backend::Scalar, &x);
    for backend in simd {
        assert_eq!(
            reference,
            csc.spmv_with(backend, &x),
            "CSC scatter order is observable; {} must agree with scalar bit for bit",
            backend.name()
        );
    }
}

#[test]
fn simd_batched_engine_matches_scalar_within_ulp_bound() {
    let simd = simd_backends();
    if simd.is_empty() {
        eprintln!("no SIMD backend on this host; scalar-only run, skipping");
        return;
    }
    for kind in 0..3usize {
        let matrix = positive_matrix(kind, 90, 90, 1100, 57 + kind as u64);
        let bound = ulp_bound(&matrix);
        let scalar = Gust::new(GustConfig::new(16).with_backend(Some(Backend::Scalar)));
        let schedule = scalar.schedule(&matrix);
        // 1 and 17 exercise the fused scalar remainder, 8 a half-register
        // tail (AVX2) / a masked half-register (AVX-512), 16 the full
        // AVX2 double block and the full AVX-512 register block.
        for batch in [1usize, 8, 16, 17] {
            let panel = positive_panel(90, batch, 71);
            let (y_scalar, report_scalar) = scalar.execute_batch(&schedule, &panel, batch);
            for &backend in &simd {
                let wide = Gust::new(GustConfig::new(16).with_backend(Some(backend)));
                let (y_simd, report_simd) = wide.execute_batch(&schedule, &panel, batch);
                let err = max_relative_error(&y_simd, &y_scalar);
                assert!(
                    err <= bound,
                    "kind {kind} batch {batch} / {}: relative divergence {err} exceeds \
                     the FMA bound {bound} (k_max = {})",
                    backend.name(),
                    max_row_nnz(&matrix)
                );
                assert_eq!(report_scalar, report_simd, "accounting is backend-free");
            }
        }
    }
}

#[test]
fn simd_csr_kernels_match_scalar_within_ulp_bound() {
    let simd = simd_backends();
    if simd.is_empty() {
        eprintln!("no SIMD backend on this host; scalar-only run, skipping");
        return;
    }
    for kind in 0..3usize {
        let matrix = positive_matrix(kind, 100, 110, 1300, 83 + kind as u64);
        let bound = ulp_bound(&matrix);
        let x = positive_vector(110, 29);
        let scalar32 = matrix.spmv_with(Backend::Scalar, &x);
        let scalar64 = gust_sparse::kernels::csr_spmv_f64(Backend::Scalar, &matrix, &x);
        for &backend in &simd {
            let err = max_relative_error(&matrix.spmv_with(backend, &x), &scalar32);
            assert!(
                err <= bound,
                "kind {kind} / {}: CSR f32 divergence {err} > {bound}",
                backend.name()
            );
            let simd64 = gust_sparse::kernels::csr_spmv_f64(backend, &matrix, &x);
            for (a, b) in scalar64.iter().zip(&simd64) {
                let denom = a.abs().max(1.0);
                assert!(
                    ((a - b) / denom).abs() <= f64::from(f32::EPSILON),
                    "kind {kind} / {}: f64 kernels diverged beyond reason: {a} vs {b}",
                    backend.name()
                );
            }
        }
    }
}

/// The seed CSR loops — one scalar accumulation chain per row, in `f32`
/// and in `f64` — as the oracle for every backend's CSR kernels and for
/// the dispatched `spmv`/`spmv_f64` entry points. Mixed-sign inputs, so
/// the bounds are looser than tier 3's.
#[test]
fn csr_kernels_match_the_seed_scalar_chains_on_every_backend() {
    let matrix = CsrMatrix::from(&gen::uniform(80, 70, 600, 9));
    let x: Vec<f32> = (0..70).map(|i| (i % 7) as f32 - 3.0).collect();
    let chain32: Vec<f32> = (0..matrix.rows())
        .map(|r| {
            let (cols, vals) = matrix.row(r);
            let mut acc = 0.0f32;
            for (&c, &v) in cols.iter().zip(vals) {
                acc += v * x[c as usize];
            }
            acc
        })
        .collect();
    let chain64: Vec<f64> = (0..matrix.rows())
        .map(|r| {
            let (cols, vals) = matrix.row(r);
            let mut acc = 0.0f64;
            for (&c, &v) in cols.iter().zip(vals) {
                acc += f64::from(v) * f64::from(x[c as usize]);
            }
            acc
        })
        .collect();
    let check64 = |got: &[f64], what: &str| {
        for (a, b) in got.iter().zip(&chain64) {
            assert!((a - b).abs() < 1e-9, "{what}: f64 {a} vs seed {b}");
        }
    };
    // Reassociated sums: equal within tolerance, not necessarily bits.
    assert_vectors_close(&matrix.spmv(&x), &chain32, 1e-5);
    check64(&matrix.spmv_f64(&x), "default");
    for backend in std::iter::once(Backend::Scalar).chain(simd_backends()) {
        assert_vectors_close(&matrix.spmv_with(backend, &x), &chain32, 1e-5);
        check64(
            &gust_sparse::kernels::csr_spmv_f64(backend, &matrix, &x),
            backend.name(),
        );
    }
}

/// Deterministic strictly positive f64 vector (same generator family as
/// [`positive_vector`], widened).
fn positive_vector_f64(n: usize, seed: u64) -> Vec<f64> {
    positive_vector(n, seed)
        .into_iter()
        .map(f64::from)
        .collect()
}

/// Column-major panel of positive f64 vectors.
fn positive_panel_f64(cols: usize, batch: usize, seed: u64) -> Vec<f64> {
    (0..batch)
        .flat_map(|j| positive_vector_f64(cols, seed.wrapping_add(j as u64 * 7919)))
        .collect()
}

/// Exact-order-free f64 oracle: per row, `Σ f64(v) · x[c]` in CSR order.
fn reference_spmv_f64(matrix: &CsrMatrix, x: &[f64]) -> Vec<f64> {
    (0..matrix.rows())
        .map(|r| {
            let (cols, vals) = matrix.row(r);
            cols.iter()
                .zip(vals)
                .map(|(&c, &v)| f64::from(v) * x[c as usize])
                .sum()
        })
        .collect()
}

/// Tier-3 bound at double precision: `4 · k_max · ε_f64`.
fn ulp_bound_f64(m: &CsrMatrix) -> f64 {
    4.0 * max_row_nnz(m) as f64 * f64::EPSILON
}

#[test]
fn f64_batched_engine_matches_the_f64_oracle_under_every_backend() {
    for kind in 0..3usize {
        let matrix = positive_matrix(kind, 90, 90, 1100, 101 + kind as u64);
        let bound = ulp_bound_f64(&matrix);
        let scalar = Gust::new(GustConfig::new(16).with_backend(Some(Backend::Scalar)));
        let schedule = scalar.schedule(&matrix);
        // Batches straddle the 8-lane f64 register block: 1 and 17 hit
        // the ragged remainder, 8 the full f64 block.
        for batch in [1usize, 8, 17] {
            let panel = positive_panel_f64(90, batch, 131);
            let (y_scalar, report_scalar) = scalar.execute_batch_f64(&schedule, &panel, batch);
            // Scalar f64 must track the row-order oracle to a few ε_f64
            // per accumulation step — the whole point of running the
            // engine in double precision.
            for j in 0..batch {
                let col = &panel[j * 90..(j + 1) * 90];
                let oracle = reference_spmv_f64(&matrix, col);
                for (r, (&got, want)) in y_scalar[j * 90..(j + 1) * 90]
                    .iter()
                    .zip(oracle)
                    .enumerate()
                {
                    let denom = want.abs().max(1.0);
                    assert!(
                        ((got - want) / denom).abs() <= bound,
                        "kind {kind} batch {batch} col {j} row {r}: {got} vs {want}"
                    );
                }
            }
            // Every SIMD backend agrees with scalar f64 within the FMA
            // bound at ε_f64, and accounting is identical.
            for backend in simd_backends() {
                let wide = Gust::new(GustConfig::new(16).with_backend(Some(backend)));
                let (y_simd, report_simd) = wide.execute_batch_f64(&schedule, &panel, batch);
                for (r, (&a, &b)) in y_scalar.iter().zip(&y_simd).enumerate() {
                    let denom = a.abs().max(1.0);
                    assert!(
                        ((a - b) / denom).abs() <= bound,
                        "kind {kind} batch {batch} / {} slot {r}: {a} vs {b}",
                        backend.name()
                    );
                }
                assert_eq!(report_scalar, report_simd, "accounting is backend-free");
            }
        }
    }
}
