//! The GUST software side: windowing, load balancing and slot assignment.
//!
//! [`Scheduler`] ties the pieces together: it builds the [`windows::WindowPlan`]
//! (row sort + lane assignment, §3.2/§3.5), colors each window with the
//! configured algorithm (§3.3, Listing 1 or the optimal Kőnig variant) or
//! arbitrates it naively, and assembles the resulting
//! [`scheduled::ScheduledMatrix`] — the preprocessed format streamed by the
//! hardware.
//!
//! # Throughput
//!
//! Scheduling is the paper's one-time preprocessing cost (§5.3, Table 4
//! "Pre."), so this module is the software hot path. Two structural choices
//! keep it fast:
//!
//! * **Flat, reusable buffers** — every per-window intermediate (the window
//!   itself, lane groups, per-edge colors) lives in a
//!   [`workspace::ColoringWorkspace`] arena that is reused across windows,
//!   so the steady state performs no allocation besides each window's
//!   exactly-sized output.
//! * **Per-window parallelism** — windows are independent by construction
//!   (§3.2: disjoint row sets), so [`Scheduler::schedule`] fans them out
//!   over the persistent worker pool ([`crate::parallel::Pool`]; threads
//!   are spawned once per process, not once per call). Each window's
//!   result lands in its own slot, making the output bit-identical to
//!   the sequential result; see [`crate::GustConfig::with_parallelism`].
//!
//! [`Scheduler::schedule_tiled`] additionally composes the coloring with
//! 2D cache blocking (see [`tiled`]): rows split into budget-sized
//! tiles so the output side stays cache-resident, and each tile's
//! sub-matrix is cut into column bands (see [`banded`]) whose window ×
//! band sub-graphs are colored independently, so the execution engine
//! can walk one cache-resident operand slice at a time — with the band
//! count chosen per tile by the density-aware
//! [`banded::ColumnBands::for_tile`] (batch width 1 for single-vector
//! walks, the register block for batched ones).

pub mod banded;
pub mod edge_coloring;
pub mod konig;
pub mod naive;
pub mod scheduled;
pub mod serialize;
pub mod stats;
pub mod tiled;
pub mod windows;
pub mod workspace;

use crate::config::{ColoringAlgorithm, GustConfig, SchedulingPolicy};
use crate::kernels::REG_BLOCK;
use crate::parallel::Pool;
use banded::{BandedSchedule, BandedWindow, ColumnBands};
use gust_sparse::CsrMatrix;
use scheduled::{ScheduledMatrix, WindowSchedule};
use std::sync::{Mutex, OnceLock};
use tiled::TiledSchedule;
use windows::WindowPlan;
use workspace::ColoringWorkspace;

/// Produces [`ScheduledMatrix`]es for a given configuration.
///
/// # Example
///
/// ```
/// use gust::schedule::Scheduler;
/// use gust::GustConfig;
/// use gust_sparse::prelude::*;
///
/// let m = CsrMatrix::from(&gen::uniform(32, 32, 128, 1));
/// let schedule = Scheduler::new(GustConfig::new(8)).schedule(&m);
/// schedule.validate_against(&m); // collision-free and complete
/// ```
#[derive(Debug, Clone)]
pub struct Scheduler {
    config: GustConfig,
}

impl Scheduler {
    /// Creates a scheduler for the given configuration.
    #[must_use]
    pub fn new(config: GustConfig) -> Self {
        Self { config }
    }

    /// The configuration this scheduler applies.
    #[must_use]
    pub fn config(&self) -> &GustConfig {
        &self.config
    }

    /// Schedules `matrix`: the paper's preprocessing step.
    ///
    /// This is the one-time cost amortized over repeated SpMVs (§5.3); its
    /// wall-clock time is what Table 4's "Pre." column reports. Windows are
    /// processed in parallel per [`GustConfig::with_parallelism`]; the
    /// result is identical for every thread count.
    #[must_use]
    pub fn schedule(&self, matrix: &CsrMatrix) -> ScheduledMatrix {
        let l = self.config.length();
        let lb = self.config.policy() == SchedulingPolicy::EdgeColoringLb;
        let plan = WindowPlan::new(matrix, l, lb);
        let window_count = plan.window_count();
        let threads = self.config.effective_workers(window_count);

        let windows = self.schedule_windows(window_count, threads, |ws, w| {
            self.schedule_one_window(matrix, &plan, w, ws)
        });

        ScheduledMatrix::from_parts(
            l,
            matrix.rows(),
            matrix.cols(),
            plan.row_perm().to_vec(),
            windows,
        )
    }

    /// Schedules `matrix` as one column-banded body with an explicit band
    /// partition: every window × band sub-graph is colored independently,
    /// and the band-major merged windows form the body's flat schedule.
    /// This is the body of every row tile ([`Scheduler::schedule_tiled`]);
    /// with one band its flat schedule is the exact schedule
    /// [`Scheduler::schedule`] produces, coloring and all.
    ///
    /// # Panics
    ///
    /// Panics if `bands` does not cover exactly `matrix.cols()` columns.
    #[must_use]
    pub(crate) fn schedule_banded_with(
        &self,
        matrix: &CsrMatrix,
        bands: ColumnBands,
    ) -> BandedSchedule {
        assert_eq!(
            bands.cols(),
            matrix.cols(),
            "band partition must cover the matrix columns"
        );
        let l = self.config.length();
        let lb = self.config.policy() == SchedulingPolicy::EdgeColoringLb;
        let plan = WindowPlan::new(matrix, l, lb);
        let window_count = plan.window_count();
        let threads = self.config.effective_workers(window_count);

        let (windows, banded_windows) = self
            .schedule_windows(window_count, threads, |ws, w| {
                self.schedule_one_window_banded(matrix, &plan, &bands, w, ws)
            })
            .into_iter()
            .unzip();
        let flat = ScheduledMatrix::from_parts(
            l,
            matrix.rows(),
            matrix.cols(),
            plan.row_perm().to_vec(),
            windows,
        );
        BandedSchedule::from_parts(flat, bands, banded_windows)
    }

    /// Schedules `matrix` with 2D row×column tiles (see [`tiled`]) sized
    /// for **single-vector** execution: rows are partitioned by
    /// [`GustConfig::effective_row_budget`] (tile output slices stay
    /// cache-resident, tiles aligned to the accelerator length), and each
    /// tile's sub-matrix is scheduled as an independent column-banded
    /// body with its own density-aware [`ColumnBands::for_tile`] band
    /// count. Executes via
    /// [`crate::Gust::execute_tiled`] /
    /// [`crate::Gust::execute_batch_tiled`]. With budgets covering both
    /// vectors this degenerates to one tile of one band — the exact
    /// [`Scheduler::schedule`] output.
    #[must_use]
    pub fn schedule_tiled(&self, matrix: &CsrMatrix) -> TiledSchedule {
        self.schedule_tiled_for_batch(matrix, 1)
    }

    /// As [`Scheduler::schedule_tiled`], sized for batched execution of
    /// `batch` right-hand sides (both budgets divide by the effective
    /// width `min(batch, REG_BLOCK)` — accumulator panels and operand
    /// slices scale with the register block alike). The plan does not
    /// depend on the configured backend: every backend walks
    /// [`REG_BLOCK`]-wide blocks.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    #[must_use]
    pub fn schedule_tiled_for_batch(&self, matrix: &CsrMatrix, batch: usize) -> TiledSchedule {
        let width = batch.min(REG_BLOCK);
        self.schedule_tiled_for_width(matrix, batch, width, std::mem::size_of::<f32>())
    }

    /// As [`Scheduler::schedule_tiled_for_batch`], sized for **f64**
    /// batched execution ([`crate::Gust::execute_batch_tiled_f64`]):
    /// effective width `min(batch, REG_BLOCK)`, both budgets divided
    /// by 8-byte elements.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    #[must_use]
    pub fn schedule_tiled_for_batch_f64(&self, matrix: &CsrMatrix, batch: usize) -> TiledSchedule {
        let width = batch.min(REG_BLOCK);
        self.schedule_tiled_for_width(matrix, batch, width, std::mem::size_of::<f64>())
    }

    fn schedule_tiled_for_width(
        &self,
        matrix: &CsrMatrix,
        batch: usize,
        width: usize,
        elem_bytes: usize,
    ) -> TiledSchedule {
        assert!(batch > 0, "batch must contain at least one vector");
        let cache_budget = self.config.effective_cache_budget();
        let row_starts = tiled::row_tile_starts_for_budget(
            matrix.rows(),
            self.config.length(),
            width,
            elem_bytes,
            self.config.effective_row_budget(),
        );
        let tiles = row_starts
            .windows(2)
            .map(|w| {
                let sub = matrix.row_slice(w[0] as usize..w[1] as usize);
                // Band count from the *tile's* structure: row density
                // and per-column gather count are tile-local (a
                // hyper-sparse tile gains nothing from bands — see
                // [`ColumnBands::for_tile`]).
                let bands = ColumnBands::for_tile(
                    sub.rows(),
                    sub.cols(),
                    sub.nnz(),
                    width,
                    elem_bytes,
                    cache_budget,
                );
                self.schedule_banded_with(&sub, bands)
            })
            .collect();
        TiledSchedule::from_parts(
            self.config.length(),
            matrix.rows(),
            matrix.cols(),
            row_starts,
            tiles,
        )
    }

    /// As [`Scheduler::schedule_tiled`], with an explicit row-tile count
    /// and a shared band partition (tests and tuning sweeps): rows split
    /// into `row_tiles` near-equal tiles, every tile banded by `bands`.
    /// One tile is the purely column-banded schedule.
    ///
    /// # Panics
    ///
    /// Panics if `row_tiles` is zero or exceeds `max(rows, 1)`, or if
    /// `bands` does not cover exactly `matrix.cols()` columns.
    #[must_use]
    pub fn schedule_tiled_with(
        &self,
        matrix: &CsrMatrix,
        row_tiles: usize,
        bands: ColumnBands,
    ) -> TiledSchedule {
        assert_eq!(
            bands.cols(),
            matrix.cols(),
            "band partition must cover the matrix columns"
        );
        let row_starts = tiled::row_tile_starts(matrix.rows(), row_tiles);
        let tiles = row_starts
            .windows(2)
            .map(|w| {
                let sub = matrix.row_slice(w[0] as usize..w[1] as usize);
                self.schedule_banded_with(&sub, bands.clone())
            })
            .collect();
        TiledSchedule::from_parts(
            self.config.length(),
            matrix.rows(),
            matrix.cols(),
            row_starts,
            tiles,
        )
    }

    /// Runs `one(workspace, w)` for every window, sequentially or fanned
    /// out over the persistent worker [`Pool`]. Window results land in
    /// per-window slots, so the output is bit-identical for every thread
    /// count regardless of the pool's dynamic task order.
    ///
    /// Workspaces live for the *run*, not the worker: parallel tasks
    /// check one out of a run-local pool (so each worker reuses one
    /// arena across its windows) and everything is dropped when the call
    /// returns — a persistent pool worker never pins the tens of MiB a
    /// wide matrix's lane tables can grow to.
    fn schedule_windows<T: Send + Sync>(
        &self,
        window_count: usize,
        threads: usize,
        one: impl Fn(&mut ColoringWorkspace, usize) -> T + Sync,
    ) -> Vec<T> {
        if threads <= 1 {
            let mut ws = ColoringWorkspace::new();
            return (0..window_count).map(|w| one(&mut ws, w)).collect();
        }
        let slots: Vec<OnceLock<T>> = (0..window_count).map(|_| OnceLock::new()).collect();
        let workspaces: Mutex<Vec<ColoringWorkspace>> = Mutex::new(Vec::new());
        Pool::global().run(threads, window_count, |w| {
            let mut ws = workspaces
                .lock()
                .expect("workspace pool lock")
                .pop()
                .unwrap_or_default();
            let window = one(&mut ws, w);
            assert!(slots[w].set(window).is_ok(), "window {w} scheduled twice");
            workspaces.lock().expect("workspace pool lock").push(ws);
        });
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("every window scheduled"))
            .collect()
    }

    /// The per-window pipeline: materialize → color/arbitrate → assemble.
    fn schedule_one_window(
        &self,
        matrix: &CsrMatrix,
        plan: &WindowPlan,
        w: usize,
        ws: &mut ColoringWorkspace,
    ) -> WindowSchedule {
        let l = self.config.length();
        plan.fill_window(matrix, w, &mut ws.window, &mut ws.lanes);
        let bound = ws.scratch.vizing_bound(&ws.window, l) as u32;
        let (colors, stalls) = self.color_or_arbitrate(&ws.window, l, &mut ws.scratch);
        ws.scratch.assemble(&ws.window, colors, bound, stalls)
    }

    /// The per-window pipeline of a banded tile body: materialize the
    /// full window once, then per band carve the sub-window
    /// ([`windows::Window::fill_band_from`]), color/arbitrate it
    /// independently, assemble a [`WindowSchedule`] per band, and merge
    /// band-major into one window plus its [`BandedWindow`] metadata.
    fn schedule_one_window_banded(
        &self,
        matrix: &CsrMatrix,
        plan: &WindowPlan,
        bands: &ColumnBands,
        w: usize,
        ws: &mut ColoringWorkspace,
    ) -> (WindowSchedule, BandedWindow) {
        let l = self.config.length();
        plan.fill_window(matrix, w, &mut ws.window, &mut ws.lanes);
        let mut per_band = Vec::with_capacity(bands.count());
        for b in 0..bands.count() {
            // Carve band `b` into the workspace's band window, preserving
            // row structure and lane assignment.
            ws.band_window.fill_band_from(&ws.window, bands.range(b));
            let bound = ws.scratch.vizing_bound(&ws.band_window, l) as u32;
            let (colors, stalls) = self.color_or_arbitrate(&ws.band_window, l, &mut ws.scratch);
            per_band.push(ws.scratch.assemble(&ws.band_window, colors, bound, stalls));
        }
        BandedWindow::from_bands(w, &per_band, bands.starts())
    }

    /// Colors (or naively arbitrates) `window` under the configured
    /// policy, returning `(colors, stalls)`.
    fn color_or_arbitrate(
        &self,
        window: &windows::Window,
        l: usize,
        scratch: &mut workspace::ColorScratch,
    ) -> (u32, u64) {
        match self.config.policy() {
            SchedulingPolicy::Naive => {
                let outcome = naive::arbitrate_window(window, l, scratch);
                (outcome.cycles, outcome.stalls)
            }
            SchedulingPolicy::EdgeColoring | SchedulingPolicy::EdgeColoringLb => {
                let colors = match self.config.coloring() {
                    ColoringAlgorithm::Verbatim => {
                        edge_coloring::color_window_verbatim(window, l, scratch)
                    }
                    ColoringAlgorithm::Grouped => {
                        edge_coloring::color_window_grouped(window, l, scratch)
                    }
                    ColoringAlgorithm::Konig => konig::color_window_konig(window, l, scratch),
                };
                (colors, 0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ColoringAlgorithm, GustConfig, SchedulingPolicy};
    use gust_sparse::prelude::*;

    fn policies() -> [SchedulingPolicy; 3] {
        [
            SchedulingPolicy::Naive,
            SchedulingPolicy::EdgeColoring,
            SchedulingPolicy::EdgeColoringLb,
        ]
    }

    #[test]
    fn every_policy_produces_a_valid_schedule() {
        let m = CsrMatrix::from(&gen::uniform(40, 40, 300, 2));
        for policy in policies() {
            let schedule = Scheduler::new(GustConfig::new(8).with_policy(policy)).schedule(&m);
            schedule.validate_against(&m);
        }
    }

    #[test]
    fn every_coloring_algorithm_produces_a_valid_schedule() {
        let m = CsrMatrix::from(&gen::power_law(60, 60, 400, 2.0, 3));
        for algo in [
            ColoringAlgorithm::Verbatim,
            ColoringAlgorithm::Grouped,
            ColoringAlgorithm::Konig,
        ] {
            let schedule = Scheduler::new(GustConfig::new(16).with_coloring(algo)).schedule(&m);
            schedule.validate_against(&m);
        }
    }

    #[test]
    fn edge_coloring_uses_no_more_cycles_than_naive() {
        let m = CsrMatrix::from(&gen::uniform(64, 64, 1024, 4));
        let naive =
            Scheduler::new(GustConfig::new(8).with_policy(SchedulingPolicy::Naive)).schedule(&m);
        let ec = Scheduler::new(GustConfig::new(8).with_policy(SchedulingPolicy::EdgeColoring))
            .schedule(&m);
        assert!(ec.total_colors() <= naive.total_colors());
        assert_eq!(ec.total_stalls(), 0);
        assert!(naive.total_stalls() > 0, "dense input should stall naive");
    }

    #[test]
    fn load_balancing_helps_on_skewed_inputs() {
        // Power-law matrices are the paper's worst case for GUST; load
        // balancing should not hurt and usually helps.
        let m = CsrMatrix::from(&gen::power_law(256, 256, 4000, 1.8, 5));
        let ec = Scheduler::new(GustConfig::new(16).with_policy(SchedulingPolicy::EdgeColoring))
            .schedule(&m);
        let lb = Scheduler::new(GustConfig::new(16).with_policy(SchedulingPolicy::EdgeColoringLb))
            .schedule(&m);
        assert!(
            lb.total_colors() as f64 <= ec.total_colors() as f64 * 1.05,
            "LB {} vs EC {}",
            lb.total_colors(),
            ec.total_colors()
        );
    }

    #[test]
    fn konig_matches_total_vizing_bound() {
        let m = CsrMatrix::from(&gen::uniform(48, 48, 500, 6));
        let schedule =
            Scheduler::new(GustConfig::new(8).with_coloring(ColoringAlgorithm::Konig)).schedule(&m);
        assert_eq!(schedule.total_colors(), schedule.total_vizing_bound());
    }

    #[test]
    fn schedule_preserves_shape_metadata() {
        let m = CsrMatrix::from(&gen::uniform(30, 50, 123, 7));
        let s = Scheduler::new(GustConfig::new(4)).schedule(&m);
        assert_eq!(s.rows(), 30);
        assert_eq!(s.cols(), 50);
        assert_eq!(s.nnz(), 123);
        assert_eq!(s.length(), 4);
        assert_eq!(s.windows().len(), 30usize.div_ceil(4));
    }

    #[test]
    fn parallel_schedule_is_identical_to_sequential() {
        let m = CsrMatrix::from(&gen::power_law(300, 300, 5000, 1.9, 8));
        for policy in policies() {
            let base = GustConfig::new(16).with_policy(policy);
            let sequential = Scheduler::new(base.clone().with_parallelism(Some(1))).schedule(&m);
            for threads in [2, 3, 8] {
                let parallel =
                    Scheduler::new(base.clone().with_parallelism(Some(threads))).schedule(&m);
                assert_eq!(parallel, sequential, "{policy:?} with {threads} threads");
            }
        }
    }

    #[test]
    fn more_workers_than_windows_is_fine() {
        let m = CsrMatrix::from(&gen::uniform(8, 8, 20, 1)); // 1 window at l=8
        let schedule = Scheduler::new(GustConfig::new(8).with_parallelism(Some(64))).schedule(&m);
        schedule.validate_against(&m);
    }
}
