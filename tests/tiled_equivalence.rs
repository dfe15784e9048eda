//! Property tests pinning 2D row×column tiled execution to the flat
//! engine, bit for bit, per backend.
//!
//! A [`TiledSchedule`] schedules each row tile's sub-matrix as an
//! independent [`BandedSchedule`], so tiled execution of tile `t` must
//! equal flat execution of the flat schedule that tile contains
//! ([`BandedSchedule::flat`]) — concatenated over tiles, the whole tiled
//! output is **bit-identical to the flat engine run per tile**, under
//! every backend, batched or not. A single-band tile runs the very walk
//! [`Gust::execute`] runs, so the single-vector oracle is the
//! instrumented color-by-color walk instead, which shares no loop with
//! either. These properties sweep the three matrix generators (uniform,
//! power-law, R-MAT), row-tile counts {1, 3}, band counts {1, 2, 7} and
//! batch sizes {1, 8, 17} — one tile is the purely column-banded
//! schedule, so the single-tile cases pin the band sweep on its own.
//! With one tile of one band the tiled schedule must *be* the flat
//! schedule, coloring and all.

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

/// The instrumented color-by-color walk of every tile's flat schedule
/// against `x`, stitched over the row tiles.
fn instrumented(engine: &Gust, tiled: &TiledSchedule, x: &[f32]) -> Vec<f32> {
    let mut y = vec![0.0f32; tiled.rows()];
    for (t, tile) in tiled.tiles().iter().enumerate() {
        y[tiled.tile_range(t)].copy_from_slice(&engine.execute_instrumented(tile.flat(), x).output);
    }
    y
}

/// The backends runnable on this host, scalar always included.
fn backends() -> Vec<Backend> {
    let mut v = vec![Backend::Scalar];
    if Backend::Avx2.is_available() {
        v.push(Backend::Avx2);
    }
    if Backend::Avx512.is_available() {
        v.push(Backend::Avx512);
    }
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Tiled execution — single vector and batched — is bit-identical to
    /// the flat engine run on each tile's flat schedule, per backend,
    /// across generators × row tiles × band counts × batch sizes.
    #[test]
    fn tiled_execution_is_bit_identical_per_backend(
        seed in 0u64..512,
        rows in 20usize..80,
        l in 3usize..12,
    ) {
        let cols = rows + 7;
        let nnz = rows * 6;
        for kind in 0..3usize {
            let matrix = generate(kind, rows, cols, nnz, seed);
            for tiles in [1usize, 3] {
                for bands in [1usize, 2, 7] {
                    let scheduler = gust::schedule::Scheduler::new(GustConfig::new(l));
                    let tiled = scheduler.schedule_tiled_with(
                        &matrix,
                        tiles,
                        ColumnBands::with_count(cols, bands),
                    );
                    for backend in backends() {
                        let engine = Gust::new(
                            GustConfig::new(l)
                                .with_backend(Some(backend))
                                .with_parallelism(Some(1)),
                        );
                        // Single vector: stitch the per-tile instrumented
                        // walks and compare bit for bit (`execute` is
                        // backend-invariant, so the scalar oracle holds
                        // for every backend).
                        let x = &panel(cols, 1, seed)[..];
                        let tiled_run = engine.execute_tiled(&tiled, x);
                        prop_assert_eq!(
                            &tiled_run.output, &instrumented(&engine, &tiled, x),
                            "kind {} tiles {} bands {} backend {}: single-vector walk diverged",
                            kind, tiles, bands, backend.name()
                        );
                        // Batched, including a multi-block ragged batch:
                        // stitch per-tile flat panels column by column.
                        for batch in [1usize, 8, 17] {
                            let b = panel(cols, batch, seed.wrapping_add(batch as u64));
                            let (y_tiled, _) = engine.execute_batch_tiled(&tiled, &b, batch);
                            let mut expected = vec![0.0f32; rows * batch];
                            for (t, tile) in tiled.tiles().iter().enumerate() {
                                let (y_flat, _) = engine.execute_batch(tile.flat(), &b, batch);
                                let range = tiled.tile_range(t);
                                for j in 0..batch {
                                    expected[j * rows + range.start..j * rows + range.end]
                                        .copy_from_slice(
                                            &y_flat[j * range.len()..(j + 1) * range.len()],
                                        );
                                }
                            }
                            prop_assert_eq!(
                                &y_tiled, &expected,
                                "kind {} tiles {} bands {} backend {} batch {}: batched walk diverged",
                                kind, tiles, bands, backend.name(), batch
                            );
                            // Scalar batched columns are bit-identical to
                            // the per-vector walk: pin them to the
                            // independent instrumented oracle too.
                            if backend == Backend::Scalar {
                                for j in 0..batch {
                                    let col = &b[j * cols..(j + 1) * cols];
                                    prop_assert_eq!(
                                        &y_tiled[j * rows..(j + 1) * rows],
                                        &instrumented(&engine, &tiled, col)[..],
                                        "kind {} tiles {} bands {} batch {} column {}: scalar batched walk diverged",
                                        kind, tiles, bands, batch, j
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// One tile of one band degenerates to the flat scheduler's exact
    /// output.
    #[test]
    fn single_band_schedule_is_the_flat_schedule(
        seed in 0u64..256,
        rows in 16usize..64,
        l in 3usize..10,
    ) {
        for kind in 0..3usize {
            let matrix = generate(kind, rows, rows, rows * 5, seed);
            let scheduler = gust::schedule::Scheduler::new(GustConfig::new(l));
            let tiled =
                scheduler.schedule_tiled_with(&matrix, 1, ColumnBands::with_count(rows, 1));
            prop_assert_eq!(
                tiled.tiles()[0].flat(),
                &scheduler.schedule(&matrix),
                "kind {}",
                kind
            );
        }
    }
}

/// A tiled schedule round-trips through the binary serializer exactly
/// (the `GUTL` container), row boundaries, band offsets and band-local
/// columns included — a multi-band single tile among them.
#[test]
fn tiled_schedule_round_trips_through_the_serializer() {
    use gust::schedule::serialize::{read_tiled_schedule, write_tiled_schedule};
    for (tiles, bands, seed) in [(1usize, 1usize, 3u64), (1, 7, 6), (3, 2, 4), (5, 7, 5)] {
        let matrix = generate(1, 60, 67, 400, seed);
        let schedule = gust::schedule::Scheduler::new(GustConfig::new(8)).schedule_tiled_with(
            &matrix,
            tiles,
            ColumnBands::with_count(67, bands),
        );
        let mut buf = Vec::new();
        write_tiled_schedule(&schedule, &mut buf).expect("write to vec");
        let back = read_tiled_schedule(buf.as_slice()).expect("read own output");
        assert_eq!(back, schedule, "{tiles} tiles × {bands} bands");
    }
}

/// The auto entry points compose the two budgets: a tiny row budget
/// forces several tiles, a tiny cache budget forces several bands per
/// tile (density-capped), and execution still matches the reference
/// kernel.
#[test]
fn auto_tiled_schedules_execute_correctly_under_forced_budgets() {
    let matrix = generate(0, 200, 150, 2400, 77);
    let engine = Gust::new(
        GustConfig::new(8)
            .with_row_budget(Some(128)) // 32 rows/tile at batch 1
            .with_cache_budget(Some(128)), // 32 cols/band at batch 1
    );
    let tiled = engine.schedule_tiled(&matrix);
    assert!(tiled.tile_count() > 1, "row budget must force tiles");
    assert!(
        tiled.tiles().iter().any(|t| t.bands().count() > 1),
        "cache budget must force bands"
    );
    let x = panel(150, 1, 9);
    let run = engine.execute_tiled(&tiled, &x);
    assert_vectors_close(&run.output, &reference_spmv(&matrix, &x), 1e-4);
    let b: Vec<f32> = (0..150 * 17).map(|i| (i % 13) as f32 / 6.0 - 1.0).collect();
    let (y, _) = engine.execute_batch_tiled(&tiled, &b, 17);
    for j in 0..17 {
        let col = &b[j * 150..(j + 1) * 150];
        let expect = reference_spmv(&matrix, col);
        let max_err = y[j * 200..(j + 1) * 200]
            .iter()
            .zip(&expect)
            .map(|(a, e)| (a - e).abs())
            .fold(0.0f32, f32::max);
        assert!(max_err < 1e-3, "column {j}: {max_err}");
    }
}
