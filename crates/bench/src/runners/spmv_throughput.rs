//! Execution-throughput benchmark: the seed's array-of-structs
//! slot-at-a-time engine versus the structure-of-arrays engine, single
//! vector and batched, under every kernel backend the host can run —
//! plus the cache-blocked 2D row×column tiled schedules on LLC-exceeding
//! workloads.
//!
//! PR 1's `schedule_throughput` tracks the one-time preprocessing cost;
//! this runner tracks the thing the schedule exists to accelerate — the
//! per-SpMV execution path the paper amortizes that cost over (§5.3). For
//! uniform, power-law and R-MAT matrices — plus a wide hub-concentrated
//! matrix that exercises the engine's window-local operand staging, two
//! **LLC-exceeding-operand** shapes (2²⁰ rows, 4× as many columns at
//! full scale) whose input vector is 16× the forced cache budget, and an
//! **LLC-exceeding-output** shape (`llc-tall-out`, 2²² rows at full
//! scale) whose output vector is 16× the forced row budget — it times
//!
//! * `legacy-slots` — the seed execution engine preserved in
//!   [`crate::legacy`]: array-of-structs slots, per-cycle counter
//!   bookkeeping, all-`l` adder dumps,
//! * `soa-single` — the production [`Gust::execute`] (one contiguous
//!   structure-of-arrays pass per window, analytic accounting), once per
//!   available backend with its own `f32` engine kernels (scalar, AVX2;
//!   AVX-512 runs the AVX2 ones) — outputs are bit-identical across
//!   backends, only the wall clock moves,
//! * `soa-batch-seq` — [`Gust::execute_batch`] over exactly one register
//!   block ([`REG_BLOCK`] columns), pinned to one thread: the pure
//!   one-pass batching win, on the same backends as `soa-single`,
//! * `soa-batch-f64` — [`Gust::execute_batch_f64`] over one register
//!   block, once per available backend: the double-precision walk
//!   iterative solvers run at production scale, gated against the
//!   exact-order f64 CSR oracle,
//! * `soa-single-tiled` / `soa-batch-tiled` — the cache-blocked
//!   [`Gust::execute_tiled`] / [`Gust::execute_batch_tiled`] over a
//!   [`gust::TiledSchedule`], on the same backends as `soa-single`: row tiles
//!   sized by the (forced, on `llc-tall-out`) row budget, each tile
//!   independently column-banded, so every gather hits a cache-resident
//!   band slice and the accumulator carry stays confined to a
//!   cache-resident output slice. Cache-resident shapes run under the
//!   auto-detected budgets (usually one tile of one band); the LLC
//!   shapes force small ones. Plans are sized per call: single rows at
//!   batch width 1, batch rows at the register block, both capped by
//!   each tile's nnz/row density,
//! * `soa-batch-mt` — the batched kernel over four register blocks
//!   fanned out on the persistent worker pool at host parallelism, on
//!   the fastest `f32` engine backend — the row a multi-core runner moves,
//! * `reference-csr` — the [`CsrMatrix::spmv`] baseline kernel, once per
//!   available backend, for context against the engine models,
//!
//! and reports wall time, nnz/s (batched kernels process `batch × nnz`
//! useful non-zeros per pass) and speedup over the seed layout. Every row
//! records the **backend name**, the **element type** (`elem`, f32/f64),
//! the **detected CPU features**, the
//! **register-block width**, the **real nnz of the matrix it ran on**
//! (shapes differ now — a constant column was a PR 3 reporting bug), the
//! **band count** (`banded`, 0 for unbanded rows; the max over tiles for
//! tiled rows), the **cache budget** the blocked schedule was built with
//! (`cache_budget`, bytes; 0 for unblocked rows), and the **row-tile
//! count** and **row budget** of the tiled rows (`row_tiles` /
//! `row_budget`, 0 for untiled rows), so `BENCH_spmv.json` entries are
//! comparable across runners.
//!
//! Every kernel is checked against the scalar-backend engine before it is
//! timed — bit for bit where the contract is bit-identity (legacy engine,
//! `soa-single` on every backend, scalar batch columns, and tiled vs. its
//! per-tile flattened schedules on *every* backend), within the
//! documented FMA-contraction bound for
//! AVX2/AVX-512 batch columns and the f64 oracle bound for the f64 rows.
//! The benchmark refuses to time wrong answers.
//!
//! Scale: `GUST_SCALE` as everywhere (dimensions ×s, non-zeros ×s²);
//! `GUST_SCALE=1` runs the full 16 384² / 1.25 M-nnz matrices the
//! acceptance numbers are quoted at. Reps: `GUST_THROUGHPUT_REPS`
//! (default 3, median reported).

use crate::legacy;
use crate::table::TextTable;
use gust::kernels::{cpu_features, Backend, REG_BLOCK};
use gust::{Gust, GustConfig, TiledSchedule};
use gust_sparse::ops::max_relative_error;
use gust_sparse::{gen, CsrMatrix};
use std::time::{Duration, Instant};

/// Full-size workload parameters (scale 1).
const FULL_DIM: usize = 16_384;
const FULL_NNZ: usize = 1_250_000;
/// GUST length the paper reports headline numbers for.
const LENGTH: usize = 256;
/// Register blocks for the threaded row: four, so the worker-pool
/// fan-out has work to split on multi-core hosts.
const MT_BLOCKS: usize = 4;

/// Rendered report plus the bare JSON rows (for `BENCH_spmv.json`).
pub struct ThroughputOutput {
    /// Human-readable report, JSON section included.
    pub report: String,
    /// The JSON array alone.
    pub json: String,
}

/// One measured kernel run.
struct Measurement {
    kernel: &'static str,
    backend: &'static str,
    /// Element type the kernel ran in: `"f32"` or `"f64"`.
    elem: &'static str,
    /// Register-block width of the batched kernels; 1 for single-vector
    /// rows.
    reg_block: usize,
    batch: usize,
    /// Band count of the tiled rows (the maximum over tiles); 0 for
    /// unblocked kernels.
    banded: usize,
    /// Cache budget (bytes) the tiled schedule targeted; 0 for
    /// unblocked kernels.
    cache_budget: usize,
    /// Row-tile count of the tiled rows; 0 for untiled kernels.
    row_tiles: usize,
    /// Row budget (bytes) the tiled schedule targeted; 0 for untiled
    /// kernels.
    row_budget: usize,
    wall: Duration,
    /// Useful non-zeros processed per pass (`batch × nnz`).
    work: u64,
}

/// One benchmarked matrix: label, data, and the budgets its blocked
/// rows force (`None` = the auto-detected budgets).
struct Workload {
    name: &'static str,
    matrix: CsrMatrix,
    cache_budget: Option<usize>,
    row_budget: Option<usize>,
}

/// Whether `backend` has `f32` engine kernels of its own. Avx512 runs the
/// `f32` walk on the AVX2 kernels, so an `avx512` row of it would be an
/// AVX2 run under the wrong label; its `f64` and CSR rows stay.
fn runs_own_f32_walk(backend: Backend) -> bool {
    backend != Backend::Avx512
}

/// The backends worth measuring on this host, scalar first.
fn available_backends() -> Vec<Backend> {
    let mut backends = vec![Backend::Scalar];
    if Backend::Avx2.is_available() {
        backends.push(Backend::Avx2);
    }
    if Backend::Avx512.is_available() {
        backends.push(Backend::Avx512);
    }
    backends
}

/// Entry point for the `spmv_throughput` binary: full scale unless
/// `GUST_SCALE` (or a `--quick` argument, meaning scale 0.05) says
/// otherwise.
#[must_use]
pub fn run_cli() -> ThroughputOutput {
    let quick = std::env::args().any(|a| a == "--quick");
    run(crate::env_scale(if quick { 0.05 } else { 1.0 }))
}

/// Runs the sweep at the given scale and renders the report.
///
/// # Panics
///
/// Panics if any kernel disagrees with the scalar engine beyond its
/// contract — the benchmark refuses to time wrong answers.
#[must_use]
pub fn run(scale: f64) -> ThroughputOutput {
    let dim = ((FULL_DIM as f64 * scale) as usize).max(64);
    let nnz = ((FULL_NNZ as f64 * scale * scale) as usize).max(1000);
    let reps: usize = std::env::var("GUST_THROUGHPUT_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
        .max(1);

    // The fourth workload is the window-local staging showcase: a wide
    // hub-concentrated matrix whose input vector dwarfs on-chip cache
    // while each window touches only the hub columns (see
    // [`crate::workloads::hub_matrix`]). The square generators keep the
    // whole operand block cache-resident, so they exercise the
    // interleave path instead. The trailing three are the LLC-exceeding
    // cache-blocking acceptance shapes ([`crate::workloads::llc_workloads`]):
    // input vector = 16× the forced cache budget (llc-uniform /
    // llc-power-law), output vector = 16× the forced row budget
    // (llc-tall-out).
    let hubs = (dim / 16).max(per_row_hubs_floor(dim, nnz));
    let mut workloads = vec![
        Workload {
            name: "uniform",
            matrix: CsrMatrix::from(&gen::uniform(dim, dim, nnz, 11)),
            cache_budget: None,
            row_budget: None,
        },
        Workload {
            name: "power-law",
            matrix: CsrMatrix::from(&gen::power_law(dim, dim, nnz, 1.9, 12)),
            cache_budget: None,
            row_budget: None,
        },
        Workload {
            name: "rmat",
            matrix: CsrMatrix::from(&gen::rmat(dim, dim, nnz, 13)),
            cache_budget: None,
            row_budget: None,
        },
        Workload {
            name: "hub-reuse",
            matrix: crate::workloads::hub_matrix(dim, dim * 16, nnz, hubs, 14),
            cache_budget: None,
            row_budget: None,
        },
    ];
    for llc in crate::workloads::llc_workloads(scale) {
        workloads.push(Workload {
            name: llc.name,
            matrix: llc.matrix,
            cache_budget: Some(llc.cache_budget),
            row_budget: llc.row_budget,
        });
    }

    let features = cpu_features();
    let backends = available_backends();
    let best_f32 = *backends
        .iter()
        .rev()
        .find(|&&b| runs_own_f32_walk(b))
        .expect("scalar is always present");
    let auto_threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut out = super::header("spmv_throughput — execution nnz/s", scale);
    out.push_str(&format!(
        "l = {LENGTH}, EC/LB schedule, {reps} reps (median), host parallelism {auto_threads}\n\
         backends: {} (features: {features}); batch = one register block of {REG_BLOCK} (mt: {MT_BLOCKS} blocks on {})\n\
         f32 engine rows skip avx512, which runs the avx2 kernels for them\n\
         tiled rows: auto budgets on cache-resident shapes, forced budgets on llc-* (spilling vector = 16x its budget)\n\n",
        backends
            .iter()
            .map(|b| b.name())
            .collect::<Vec<_>>()
            .join(", "),
        best_f32.name(),
    ));

    let mut table = TextTable::new([
        "matrix",
        "kernel",
        "backend",
        "elem",
        "features",
        "reg_block",
        "batch",
        "banded",
        "cache_budget",
        "row_tiles",
        "row_budget",
        "nnz",
        "wall_ms",
        "nnz_per_s",
        "speedup_vs_legacy",
    ]);

    for workload in &workloads {
        let measurements = measure_kernels(workload, &backends, best_f32, reps);
        let legacy_rate = measurements[0].work as f64 / measurements[0].wall.as_secs_f64();
        for m in &measurements {
            let wall_s = m.wall.as_secs_f64();
            let rate = m.work as f64 / wall_s;
            table.push_row([
                workload.name.to_string(),
                m.kernel.to_string(),
                m.backend.to_string(),
                m.elem.to_string(),
                features.clone(),
                m.reg_block.to_string(),
                m.batch.to_string(),
                m.banded.to_string(),
                m.cache_budget.to_string(),
                m.row_tiles.to_string(),
                m.row_budget.to_string(),
                workload.matrix.nnz().to_string(),
                format!("{:.3}", wall_s * 1e3),
                format!("{rate:.0}"),
                format!("{:.2}", rate / legacy_rate),
            ]);
        }
    }

    out.push_str(&table.render());
    out.push_str("\nJSON:\n");
    let json = table.to_json();
    out.push_str(&json);
    out.push('\n');
    ThroughputOutput { report: out, json }
}

/// Smallest hub count that keeps `hub_matrix` rows collision-free.
fn per_row_hubs_floor(rows: usize, nnz: usize) -> usize {
    nnz.div_ceil(rows) + 1
}

/// Builds a single-threaded engine pinned to `backend` (and, for tiled
/// schedules, to the forced budgets).
fn engine(backend: Backend, budget: Option<usize>, row_budget: Option<usize>) -> Gust {
    Gust::new(
        GustConfig::new(LENGTH)
            .with_parallelism(Some(1))
            .with_backend(Some(backend))
            .with_cache_budget(budget)
            .with_row_budget(row_budget),
    )
}

/// Measures the kernel shapes on one matrix, asserting each agrees with
/// the scalar engine (bit for bit or within the FMA bound, per contract)
/// first.
fn measure_kernels(
    workload: &Workload,
    backends: &[Backend],
    best_f32: Backend,
    reps: usize,
) -> Vec<Measurement> {
    let matrix = &workload.matrix;
    let nnz = matrix.nnz() as u64;
    let scalar = engine(Backend::Scalar, None, None);
    let schedule = scalar.schedule(matrix);
    let rows = schedule.rows();
    let x = crate::test_vector(matrix.cols());

    // The blocked schedules: forced budgets on the LLC shapes, auto
    // budgets (usually a single band / tile) on cache-resident ones.
    // Single-vector rows get single-width tile and band plans and batch
    // rows register-block-width ones. Plans do not depend on the
    // backend. Each tile's flattened form anchors the bit-identity gates
    // below.
    let blocked = engine(Backend::Scalar, workload.cache_budget, workload.row_budget);
    let tiled_single = blocked.schedule_tiled(matrix);
    let tiled = blocked.schedule_tiled_for_batch(matrix, REG_BLOCK);
    let budget_used = workload
        .cache_budget
        .unwrap_or_else(gust::config::default_cache_budget);
    let row_budget_used = workload
        .row_budget
        .unwrap_or_else(gust::config::default_row_budget);

    // Correctness gates. The scalar single-vector engine is the anchor.
    let reference = scalar.execute(&schedule, &x);
    let slot_windows = legacy::legacy_slot_windows(&schedule);
    let (legacy_y, _) = legacy::legacy_execute(&schedule, &slot_windows, &x);
    assert_eq!(legacy_y, reference.output, "legacy executor diverged");
    let f64_reference: Vec<f32> = matrix.spmv_f64(&x).iter().map(|&v| v as f32).collect();

    let mut results = Vec::new();
    results.push(Measurement {
        kernel: "legacy-slots",
        backend: Backend::Scalar.name(),
        elem: "f32",
        reg_block: 1,
        batch: 1,
        banded: 0,
        cache_budget: 0,
        row_tiles: 0,
        row_budget: 0,
        wall: timed(reps, || {
            std::hint::black_box(legacy::legacy_execute(&schedule, &slot_windows, &x));
        }),
        work: nnz,
    });

    for &backend in backends {
        let gust = engine(backend, workload.cache_budget, workload.row_budget);
        let panel = crate::workloads::shifted_panel(&x, REG_BLOCK, 0.25);

        if runs_own_f32_walk(backend) {
            // Single vector: bit-identical across backends, by contract.
            let single = gust.execute(&schedule, &x);
            assert_eq!(
                single.output,
                reference.output,
                "{} single-vector engine diverged from scalar",
                backend.name()
            );
            // Batched: scalar columns bit-identical to the scalar path,
            // AVX2 columns within the FMA-contraction bound.
            let (batched, _) = gust.execute_batch(&schedule, &panel, REG_BLOCK);
            for j in 0..REG_BLOCK {
                let col = &panel[j * matrix.cols()..(j + 1) * matrix.cols()];
                let expect = scalar.execute(&schedule, col);
                let got = &batched[j * rows..(j + 1) * rows];
                if backend == Backend::Scalar {
                    assert_eq!(
                        got,
                        expect.output.as_slice(),
                        "scalar batched column {j} diverged from the scalar path"
                    );
                } else {
                    let err = max_relative_error(got, &expect.output);
                    assert!(
                        err < 1e-3,
                        "{} batched column {j} beyond the FMA bound: {err}",
                        backend.name()
                    );
                }
            }
            // Tiled: per-tile bit-identity under every backend — the
            // blocking contract. The tiled output must equal the unbanded
            // engine run on every tile's flattened schedule, stitched over
            // the row tiles. Single and batch rows use differently-sized
            // plans, so each is gated against its own flattenings.
            let tiled_run = gust.execute_tiled(&tiled_single, &x);
            let mut single_expected = vec![0.0f32; rows];
            for (t, tile) in tiled_single.tiles().iter().enumerate() {
                single_expected[tiled_single.tile_range(t)]
                    .copy_from_slice(&gust.execute(tile.flat(), &x).output);
            }
            assert_eq!(
                tiled_run.output,
                single_expected,
                "{} tiled single-vector walk diverged from its per-tile flattened schedules",
                backend.name()
            );
            let err = max_relative_error(&tiled_run.output, &f64_reference);
            assert!(err < 1e-3, "{} tiled diverged: {err}", backend.name());
            let (tiled_y, _) = gust.execute_batch_tiled(&tiled, &panel, REG_BLOCK);
            let mut tiled_expected = vec![0.0f32; rows * REG_BLOCK];
            for (t, tile) in tiled.tiles().iter().enumerate() {
                let (y_flat, _) = gust.execute_batch(tile.flat(), &panel, REG_BLOCK);
                let range = tiled.tile_range(t);
                for j in 0..REG_BLOCK {
                    tiled_expected[j * rows + range.start..j * rows + range.end]
                        .copy_from_slice(&y_flat[j * range.len()..(j + 1) * range.len()]);
                }
            }
            assert_eq!(
                tiled_y,
                tiled_expected,
                "{} tiled batch diverged from its per-tile flattened schedules",
                backend.name()
            );

            results.push(Measurement {
                kernel: "soa-single",
                backend: backend.name(),
                elem: "f32",
                reg_block: 1,
                batch: 1,
                banded: 0,
                cache_budget: 0,
                row_tiles: 0,
                row_budget: 0,
                wall: timed(reps, || {
                    std::hint::black_box(gust.execute(&schedule, &x));
                }),
                work: nnz,
            });
            results.push(Measurement {
                kernel: "soa-batch-seq",
                backend: backend.name(),
                elem: "f32",
                reg_block: REG_BLOCK,
                batch: REG_BLOCK,
                banded: 0,
                cache_budget: 0,
                row_tiles: 0,
                row_budget: 0,
                wall: timed(reps, || {
                    std::hint::black_box(gust.execute_batch(&schedule, &panel, REG_BLOCK));
                }),
                work: REG_BLOCK as u64 * nnz,
            });
            results.push(Measurement {
                kernel: "soa-single-tiled",
                backend: backend.name(),
                elem: "f32",
                reg_block: 1,
                batch: 1,
                banded: max_tile_bands(&tiled_single),
                cache_budget: budget_used,
                row_tiles: tiled_single.tile_count(),
                row_budget: row_budget_used,
                wall: timed(reps, || {
                    std::hint::black_box(gust.execute_tiled(&tiled_single, &x));
                }),
                work: nnz,
            });
            results.push(Measurement {
                kernel: "soa-batch-tiled",
                backend: backend.name(),
                elem: "f32",
                reg_block: REG_BLOCK,
                batch: REG_BLOCK,
                banded: max_tile_bands(&tiled),
                cache_budget: budget_used,
                row_tiles: tiled.tile_count(),
                row_budget: row_budget_used,
                wall: timed(reps, || {
                    std::hint::black_box(gust.execute_batch_tiled(&tiled, &panel, REG_BLOCK));
                }),
                work: REG_BLOCK as u64 * nnz,
            });
        }

        // Double-precision batched walk over one f64 register block:
        // each widened column is gated against the exact-order f64 CSR
        // oracle (re-association in f64 leaves ~k·ε_f64 of slack —
        // invisible at 1e-9).
        let panel64: Vec<f64> = panel.iter().map(|&v| f64::from(v)).collect();
        let (batched64, _) = gust.execute_batch_f64(&schedule, &panel64, REG_BLOCK);
        for j in 0..REG_BLOCK {
            let col = &panel[j * matrix.cols()..(j + 1) * matrix.cols()];
            let oracle = matrix.spmv_f64(col);
            for (r, (&got, want)) in batched64[j * rows..(j + 1) * rows]
                .iter()
                .zip(oracle)
                .enumerate()
            {
                let denom = want.abs().max(1.0);
                assert!(
                    ((got - want) / denom).abs() < 1e-9,
                    "{} f64 batched column {j} row {r} diverged: {got} vs {want}",
                    backend.name()
                );
            }
        }
        results.push(Measurement {
            kernel: "soa-batch-f64",
            backend: backend.name(),
            elem: "f64",
            reg_block: REG_BLOCK,
            batch: REG_BLOCK,
            banded: 0,
            cache_budget: 0,
            row_tiles: 0,
            row_budget: 0,
            wall: timed(reps, || {
                std::hint::black_box(gust.execute_batch_f64(&schedule, &panel64, REG_BLOCK));
            }),
            work: REG_BLOCK as u64 * nnz,
        });

        // Reference CSR kernel against the f64 oracle.
        let y_ref = matrix.spmv_with(backend, &x);
        let err = max_relative_error(&y_ref, &f64_reference);
        assert!(
            err < 1e-3,
            "{} reference CSR diverged: {err}",
            backend.name()
        );
        results.push(Measurement {
            kernel: "reference-csr",
            backend: backend.name(),
            elem: "f32",
            reg_block: 1,
            batch: 1,
            banded: 0,
            cache_budget: 0,
            row_tiles: 0,
            row_budget: 0,
            wall: timed(reps, || {
                std::hint::black_box(matrix.spmv_with(backend, &x));
            }),
            work: nnz,
        });
    }

    // Threaded row: the fastest f32 engine backend, four register blocks
    // on the pool.
    let mt = Gust::new(GustConfig::new(LENGTH).with_backend(Some(best_f32)));
    let batch_mt = MT_BLOCKS * REG_BLOCK;
    let panel_mt = crate::workloads::shifted_panel(&x, batch_mt, 0.25);
    let (batched_mt, _) = mt.execute_batch(&schedule, &panel_mt, batch_mt);
    for j in 0..batch_mt {
        let col = &panel_mt[j * matrix.cols()..(j + 1) * matrix.cols()];
        let expect = scalar.execute(&schedule, col);
        let err = max_relative_error(&batched_mt[j * rows..(j + 1) * rows], &expect.output);
        assert!(err < 1e-3, "threaded batched column {j} diverged: {err}");
    }
    results.push(Measurement {
        kernel: "soa-batch-mt",
        backend: best_f32.name(),
        elem: "f32",
        reg_block: REG_BLOCK,
        batch: batch_mt,
        banded: 0,
        cache_budget: 0,
        row_tiles: 0,
        row_budget: 0,
        wall: timed(reps, || {
            std::hint::black_box(mt.execute_batch(&schedule, &panel_mt, batch_mt));
        }),
        work: batch_mt as u64 * nnz,
    });

    results
}

/// The largest band count over `tiled`'s tiles (the `banded` column).
fn max_tile_bands(tiled: &TiledSchedule) -> usize {
    tiled
        .tiles()
        .iter()
        .map(|t| t.bands().count())
        .max()
        .unwrap_or(1)
}

/// Runs `f` `reps` times and returns the median wall time.
fn timed<F: FnMut()>(reps: usize, mut f: F) -> Duration {
    let mut walls = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        f();
        walls.push(start.elapsed());
    }
    walls.sort_unstable();
    walls[walls.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_at_tiny_scale_and_emits_json() {
        let out = run(0.02);
        assert!(out.report.contains("spmv_throughput"));
        for kernel in [
            "legacy-slots",
            "soa-single",
            "soa-batch-seq",
            "soa-batch-f64",
            "soa-single-tiled",
            "soa-batch-tiled",
            "soa-batch-mt",
            "reference-csr",
        ] {
            assert!(out.report.contains(kernel), "missing {kernel}");
        }
        assert!(out.report.contains("JSON:"));
        assert!(out.json.contains("\"nnz_per_s\":"));
        assert!(out.json.contains("\"speedup_vs_legacy\":"));
        assert!(out.json.contains("\"backend\": \"scalar\""));
        assert!(out.json.contains("\"features\":"));
        assert!(out.json.contains("\"elem\": \"f32\""));
        assert!(out.json.contains("\"elem\": \"f64\""));
        assert!(out.json.contains("\"reg_block\":"));
        assert!(out.json.contains("\"banded\":"));
        assert!(out.json.contains("\"cache_budget\":"));
        assert!(out.json.contains("\"row_tiles\":"));
        assert!(out.json.contains("\"row_budget\":"));
        // Seven workloads × (legacy + mt + f64 and CSR rows per available
        // backend + 4 f32 engine rows per backend with its own kernels).
        let backends = available_backends();
        let own_f32 = backends.iter().filter(|&&b| runs_own_f32_walk(b)).count();
        let rows_per_matrix = 2 + 2 * backends.len() + 4 * own_f32;
        assert_eq!(out.json.matches("\"matrix\":").count(), 7 * rows_per_matrix);
        assert!(out.json.contains("\"hub-reuse\""));
        assert!(out.json.contains("\"llc-uniform\""));
        assert!(out.json.contains("\"llc-power-law\""));
        assert!(out.json.contains("\"llc-tall-out\""));
        // The forced row budget must split the tall shape into several
        // row tiles.
        let max_tiles = out
            .json
            .split("\"row_tiles\": ")
            .skip(1)
            .filter_map(|rest| rest.split(',').next().unwrap().parse::<usize>().ok())
            .max()
            .unwrap();
        assert!(max_tiles > 1, "llc-tall-out rows must split into tiles");
        // The nnz column records the real per-matrix count: the LLC
        // shapes are denser than the square ones, so the column cannot
        // be constant (the PR 3 bug this run fixes).
        let nnz_values: std::collections::BTreeSet<&str> = out
            .json
            .split("\"nnz\": ")
            .skip(1)
            .map(|rest| rest.split(',').next().unwrap())
            .collect();
        assert!(
            nnz_values.len() > 1,
            "per-shape nnz must differ, got {nnz_values:?}"
        );
        // LLC rows are cut into multiple bands under the forced budget
        // (operand vector = 16× budget → > 1 band at any scale).
        let max_bands = out
            .json
            .split("\"banded\": ")
            .skip(1)
            .filter_map(|rest| rest.split(',').next().unwrap().parse::<usize>().ok())
            .max()
            .unwrap();
        assert!(max_bands > 1, "LLC rows must split into bands");
        if Backend::Avx2.is_available() {
            assert!(out.json.contains("\"backend\": \"avx2\""));
        }
        if Backend::Avx512.is_available() {
            assert!(out.json.contains("\"backend\": \"avx512\""));
        }
    }
}
