//! Property tests pinning the batched structure-of-arrays engine to the
//! per-vector scalar path, bit for bit — under the **scalar backend**.
//!
//! The batched kernel walks the schedule once for a whole panel of
//! right-hand sides, staging/interleaving operands into register blocks
//! and optionally fanning blocks out over threads. Under
//! `Backend::Scalar`, none of that is allowed to change a single bit: per
//! output column, products and per-adder accumulation order must equal
//! the scalar `Gust::execute` walk. (SIMD backends fuse the batched
//! accumulates into FMAs; their agreement-within-ULPs contract is pinned
//! by `tests/backend_equivalence.rs`.) These properties sweep the three
//! matrix generators (uniform, power-law, R-MAT), all three scheduling
//! policies, and batch sizes around the register-block width (1, 3, 8,
//! 17), so every remainder-block and multi-block shape is exercised —
//! including ragged final windows whenever `rows % l != 0`.

use gust::prelude::*;
use gust_repro::prelude::*;
use proptest::prelude::*;

/// Column-major panel of `batch` deterministic, distinct vectors.
fn panel(cols: usize, batch: usize, seed: u64) -> Vec<f32> {
    (0..batch)
        .flat_map(|j| {
            (0..cols).map(move |i| {
                let h = (i as u64)
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(seed ^ (j as u64) << 17)
                    .rotate_left(23);
                ((h % 2000) as f32) / 500.0 - 2.0
            })
        })
        .collect()
}

/// The three generator families the acceptance numbers are quoted on.
fn generate(kind: usize, rows: usize, cols: usize, nnz: usize, seed: u64) -> CsrMatrix {
    let coo = match kind {
        0 => gen::uniform(rows, cols, nnz, seed),
        1 => gen::power_law(rows, cols, nnz, 1.9, seed),
        _ => gen::rmat(rows, cols, nnz, seed),
    };
    CsrMatrix::from(&coo)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Batched execution is bit-identical to per-vector scalar execution
    /// across generators, policies and batch sizes.
    #[test]
    fn batched_execution_is_bit_identical_to_scalar(
        seed in 0u64..512,
        rows in 20usize..90,
        l in 3usize..12,
    ) {
        let nnz = rows * 6;
        for kind in 0..3usize {
            let matrix = generate(kind, rows, rows + 5, nnz, seed);
            for policy in [
                SchedulingPolicy::Naive,
                SchedulingPolicy::EdgeColoring,
                SchedulingPolicy::EdgeColoringLb,
            ] {
                let gust = Gust::new(GustConfig::new(l).with_policy(policy));
                let schedule = gust.schedule(&matrix);
                for batch in [1usize, 3, 8, 17] {
                    // Exercise the thread fan-out on the multi-block size,
                    // the sequential path elsewhere.
                    let workers = if batch > 8 { Some(2) } else { Some(1) };
                    let engine = Gust::new(
                        GustConfig::new(l)
                            .with_policy(policy)
                            .with_parallelism(workers)
                            .with_backend(Some(Backend::Scalar)),
                    );
                    let b = panel(matrix.cols(), batch, seed);
                    let (y, report) = engine.execute_batch(&schedule, &b, batch);
                    prop_assert_eq!(y.len(), matrix.rows() * batch);
                    for j in 0..batch {
                        let x = &b[j * matrix.cols()..(j + 1) * matrix.cols()];
                        let single = engine.execute(&schedule, x);
                        prop_assert_eq!(
                            &y[j * matrix.rows()..(j + 1) * matrix.rows()],
                            single.output.as_slice(),
                            "kind {} policy {:?} batch {} column {}",
                            kind, policy, batch, j
                        );
                        // The folded report is the per-vector report × batch.
                        prop_assert_eq!(
                            report.cycles,
                            single.report.cycles * batch as u64
                        );
                    }
                }
            }
        }
    }

    /// The batched panel also agrees with the f64 reference, column by
    /// column (numerical sanity on top of bit-identity).
    #[test]
    fn batched_execution_matches_reference_panel(
        seed in 0u64..512,
        rows in 20usize..70,
    ) {
        let matrix = generate(seed as usize % 3, rows, rows, rows * 5, seed);
        let gust = Gust::new(GustConfig::new(8));
        let schedule = gust.schedule(&matrix);
        let batch = 5usize;
        let b = panel(matrix.cols(), batch, seed);
        let (y, _) = gust.execute_batch(&schedule, &b, batch);
        let expected = reference_spmm_panel(&matrix, &b, batch);
        prop_assert!(max_relative_error(&y, &expected) < 1e-3);
    }
}

/// Repeated pool-backed `execute_batch` calls spawn no new threads after
/// warm-up — the persistent pool's whole point: iterative solvers pay
/// thread startup once per process, not once per SpMV.
#[test]
fn warm_pool_spawns_no_threads_across_execute_batch_calls() {
    let matrix = generate(0, 64, 64, 500, 42);
    let engine = Gust::new(GustConfig::new(8).with_parallelism(Some(4)));
    let schedule = engine.schedule(&matrix);
    let batch = 33usize; // 5 register blocks: real fan-out work
    let b = panel(64, batch, 9);

    // Warm-up: the pool lazily spawns its workers here.
    let (warm, _) = engine.execute_batch(&schedule, &b, batch);
    let spawned_after_warmup = Pool::global().threads_spawned();
    assert!(spawned_after_warmup > 0, "fan-out must engage the pool");

    for _ in 0..8 {
        let (again, _) = engine.execute_batch(&schedule, &b, batch);
        assert_eq!(again, warm, "results stay bit-identical run to run");
    }
    assert_eq!(
        Pool::global().threads_spawned(),
        spawned_after_warmup,
        "a warm pool must not spawn new threads"
    );
}

/// Column `j` of a width-`w` panel is bit-identical to column `j` of the
/// width-17 panel, for every width 1..=17, in `f32` and `f64`, under
/// every available backend. Widths 1..=8 each run their own
/// compile-time-width kernel and 9..=17 add a ragged tail block, so this
/// covers every narrow kernel against the full register block. It is
/// what keeps a served response independent of the other requests its
/// panel happened to carry.
#[test]
fn panel_columns_are_independent_of_the_panel_width() {
    const WIDEST: usize = 17;
    let matrix = generate(1, 150, 140, 1500, 5);
    let cols = matrix.cols();
    let rows = matrix.rows();
    let b32: Vec<f32> = (0..cols * WIDEST)
        .map(|i| (i as f32 * 0.37).sin())
        .collect();
    let b64: Vec<f64> = (0..cols * WIDEST)
        .map(|i| (i as f64 * 0.37).sin())
        .collect();
    let backends = [Backend::Scalar, Backend::Avx2, Backend::Avx512]
        .into_iter()
        .filter(|b| b.is_available());
    for backend in backends {
        let engine = Gust::new(GustConfig::new(8).with_backend(Some(backend)));
        let schedule = engine.schedule(&matrix);
        let (wide32, _) = engine.execute_batch(&schedule, &b32, WIDEST);
        let (wide64, _) = engine.execute_batch_f64(&schedule, &b64, WIDEST);
        for w in 1..=WIDEST {
            let (y32, _) = engine.execute_batch(&schedule, &b32[..cols * w], w);
            let (y64, _) = engine.execute_batch_f64(&schedule, &b64[..cols * w], w);
            let same32 = y32
                .iter()
                .zip(&wide32)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            let same64 = y64
                .iter()
                .zip(&wide64)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert_eq!((y32.len(), y64.len()), (rows * w, rows * w));
            assert!(same32, "{} f32 width {w}", backend.name());
            assert!(same64, "{} f64 width {w}", backend.name());
        }
    }
}
