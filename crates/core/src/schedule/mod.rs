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

pub mod edge_coloring;
pub mod konig;
pub mod naive;
pub mod scheduled;
pub mod serialize;
pub mod stats;
pub mod windows;
pub mod workspace;

use crate::config::{ColoringAlgorithm, GustConfig, SchedulingPolicy};
use crate::parallel::Pool;
use gust_sparse::CsrMatrix;
use scheduled::{ScheduledMatrix, WindowSchedule};
use std::sync::{Mutex, OnceLock};
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
    fn schedule_windows(
        &self,
        window_count: usize,
        threads: usize,
        one: impl Fn(&mut ColoringWorkspace, usize) -> WindowSchedule + Sync,
    ) -> Vec<WindowSchedule> {
        if threads <= 1 {
            let mut ws = ColoringWorkspace::new();
            return (0..window_count).map(|w| one(&mut ws, w)).collect();
        }
        let slots: Vec<OnceLock<WindowSchedule>> =
            (0..window_count).map(|_| OnceLock::new()).collect();
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
