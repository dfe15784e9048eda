//! The naive collision-stall schedule (§3.3).
//!
//! Without edge coloring, the buffers are filled in natural order — each
//! multiplier lane receives its column segments front to back — and the
//! buffers advance in lockstep: all lanes present their position-`p` entry
//! in the same cycle. When any two entries of a position target the same
//! adder, the hardware "simply \[does\] not forward the values from the
//! buffers" (§3.3): the collision-free entries of the position go through
//! in the first cycle, and the colliding ones drain serially, one per
//! cycle, before the position pointer can advance.
//!
//! This is what makes the paper's motivating claim come out: on 16 384²
//! uniform matrices a position almost always contains a collision beyond
//! density ≈ 1/l, so naive GUST degenerates to ~1 element/cycle-ish rates
//! and falls behind even the dense-streaming 1D array past density ≈ 0.008
//! (reproduced by the `bound` bench's crossover sweep).
//!
//! The arbitration assigns every element an issue cycle, which *is* a
//! (wasteful) coloring: within a cycle all lanes are distinct by
//! construction and all adders are distinct by the stall rule. The result
//! therefore writes cycle indices into the shared [`ColorScratch`] like the
//! edge colorers and assembles into the same
//! [`WindowSchedule`](super::scheduled::WindowSchedule) running on the same
//! engine.

use super::windows::Window;
use super::workspace::ColorScratch;

/// Cycle count and stall count of one arbitrated window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NaiveOutcome {
    /// Cycles (colors) the window occupies under lockstep arbitration.
    pub cycles: u32,
    /// Lane-cycles lost to collisions (lanes idle while a position drains).
    pub stalls: u64,
}

/// Simulates lockstep head-of-line arbitration for one window. Writes the
/// issue cycle of every edge into `scratch.edge_color` and returns the
/// cycle/stall totals.
///
/// Lane queues hold the window's elements in column-segment order
/// (`(col, row)` within the window), the natural fill order of the
/// unscheduled format.
pub fn arbitrate_window(window: &Window, l: usize, scratch: &mut ColorScratch) -> NaiveOutcome {
    let nnz = window.nnz();
    let n_rows = window.rows();
    let edges = window.edges();
    scratch.begin_window(nnz, l);
    scratch.fill_edge_rows(window);

    // Bucket edge ids per lane (counting sort), then order each lane's
    // queue by (col, row) — the natural fill order.
    scratch.lane_ptr.clear();
    scratch.lane_ptr.resize(l + 1, 0);
    for e in edges {
        scratch.lane_ptr[e.lane as usize + 1] += 1;
    }
    for lane in 0..l {
        scratch.lane_ptr[lane + 1] += scratch.lane_ptr[lane];
    }
    scratch.lane_edges.clear();
    scratch.lane_edges.resize(nnz, 0);
    {
        // Reuse `group_head` as the per-lane write cursor.
        scratch.group_head.clear();
        scratch.group_head.extend_from_slice(&scratch.lane_ptr[..l]);
        for (eid, e) in edges.iter().enumerate() {
            let lane = e.lane as usize;
            let at = scratch.group_head[lane] as usize;
            scratch.group_head[lane] += 1;
            scratch.lane_edges[at] = eid as u32;
        }
    }
    for lane in 0..l {
        let lo = scratch.lane_ptr[lane] as usize;
        let hi = scratch.lane_ptr[lane + 1] as usize;
        let edge_row = &scratch.edge_row;
        scratch.lane_edges[lo..hi]
            .sort_unstable_by_key(|&eid| (edges[eid as usize].col, edge_row[eid as usize]));
    }

    let positions = (0..l)
        .map(|lane| (scratch.lane_ptr[lane + 1] - scratch.lane_ptr[lane]) as usize)
        .max()
        .unwrap_or(0);

    scratch.row_count.clear();
    scratch.row_count.resize(n_rows, 0);

    let mut cycles: u32 = 0;
    let mut stalls: u64 = 0;
    for p in 0..positions {
        // The position's entries, in lane order.
        let first_cycle = cycles;
        cycles += 1;

        let mut live_lanes: u64 = 0;
        for lane in 0..l {
            let lo = scratch.lane_ptr[lane] as usize;
            let hi = scratch.lane_ptr[lane + 1] as usize;
            if lo + p < hi {
                let eid = scratch.lane_edges[lo + p] as usize;
                scratch.row_count[scratch.edge_row[eid] as usize] += 1;
                live_lanes += 1;
            }
        }

        // First cycle of the position: forward every entry whose adder is
        // uncontended. Colliding entries are held back (their partial
        // products would be lost) and drain serially, one per cycle, while
        // every other live lane waits on the lockstep position pointer.
        scratch.held.clear();
        for lane in 0..l {
            let lo = scratch.lane_ptr[lane] as usize;
            let hi = scratch.lane_ptr[lane + 1] as usize;
            if lo + p < hi {
                let eid = scratch.lane_edges[lo + p] as usize;
                if scratch.row_count[scratch.edge_row[eid] as usize] == 1 {
                    scratch.edge_color[eid] = first_cycle;
                } else {
                    scratch.held.push(eid as u32);
                }
            }
        }
        stalls += scratch.held.len() as u64;

        let mut drain_from = 0usize;
        if scratch.held.len() as u64 == live_lanes && live_lanes > 0 {
            // Pure-collision position: the first drained entry uses the
            // otherwise-wasted first cycle.
            scratch.edge_color[scratch.held[0] as usize] = first_cycle;
            drain_from = 1;
        }
        for &eid in &scratch.held[drain_from..] {
            scratch.edge_color[eid as usize] = cycles;
            cycles += 1;
            stalls += live_lanes - 1;
        }

        // Reset the adder multiplicities touched by this position.
        for lane in 0..l {
            let lo = scratch.lane_ptr[lane] as usize;
            let hi = scratch.lane_ptr[lane + 1] as usize;
            if lo + p < hi {
                let eid = scratch.lane_edges[lo + p] as usize;
                scratch.row_count[scratch.edge_row[eid] as usize] = 0;
            }
        }
    }

    NaiveOutcome { cycles, stalls }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::scheduled::WindowSchedule;
    use crate::schedule::windows::WindowPlan;
    use crate::schedule::workspace::ColoringWorkspace;
    use gust_sparse::prelude::*;

    fn arbitrate_to_schedule(window: &Window, l: usize) -> (WindowSchedule, NaiveOutcome) {
        let mut ws = ColoringWorkspace::new();
        let outcome = arbitrate_window(window, l, &mut ws.scratch);
        let schedule = ws.scratch.assemble(
            window,
            outcome.cycles,
            window.vizing_bound(l) as u32,
            outcome.stalls,
        );
        (schedule, outcome)
    }

    #[test]
    fn collision_free_window_issues_at_full_rate() {
        // Identity: each lane has one element, all distinct adders.
        let m = CsrMatrix::identity(4);
        let plan = WindowPlan::new(&m, 4, false);
        let w = plan.window(&m, 0);
        let (_, outcome) = arbitrate_to_schedule(&w, 4);
        assert_eq!(outcome.cycles, 1);
        assert_eq!(outcome.stalls, 0);
    }

    #[test]
    fn dense_row_serializes_the_whole_position() {
        // One full row of length 4 at l = 4: all four lanes collide on
        // adder 0 -> first cycle forwards one, then 3 serial drains.
        let coo = CooMatrix::from_triplets(
            1,
            4,
            vec![(0, 0, 1.0), (0, 1, 2.0), (0, 2, 3.0), (0, 3, 4.0)],
        )
        .unwrap();
        let m = CsrMatrix::from(&coo);
        let plan = WindowPlan::new(&m, 4, false);
        let (_, outcome) = arbitrate_to_schedule(&plan.window(&m, 0), 4);
        assert_eq!(outcome.cycles, 4);
        assert!(outcome.stalls > 0);
    }

    #[test]
    fn mixed_position_forwards_uniques_then_drains() {
        // l = 4, one window of 3 rows. Position 0 entries: lanes 0,1 hit
        // row 0 (collide), lane 2 hits row 1, lane 3 hits row 2 (unique).
        let coo = CooMatrix::from_triplets(
            3,
            4,
            vec![(0, 0, 1.0), (0, 1, 2.0), (1, 2, 3.0), (2, 3, 4.0)],
        )
        .unwrap();
        let m = CsrMatrix::from(&coo);
        let plan = WindowPlan::new(&m, 4, false);
        let (schedule, outcome) = arbitrate_to_schedule(&plan.window(&m, 0), 4);
        // Cycle 1: the two uniques; cycles 2-3: the colliding pair drains.
        assert_eq!(outcome.cycles, 3);
        assert_eq!(schedule.color_range(0).len(), 2);
        assert_eq!(schedule.color_range(1).len(), 1);
        assert_eq!(schedule.color_range(2).len(), 1);
    }

    #[test]
    fn arbitration_covers_every_element_once() {
        let coo = gen::uniform(24, 24, 150, 3);
        let m = CsrMatrix::from(&coo);
        let plan = WindowPlan::new(&m, 8, false);
        let mut total = 0usize;
        for wi in 0..plan.window_count() {
            let w = plan.window(&m, wi);
            let (schedule, _) = arbitrate_to_schedule(&w, 8);
            assert_eq!(schedule.nnz(), w.nnz());
            total += schedule.nnz();
        }
        assert_eq!(total, m.nnz());
    }

    #[test]
    fn cycles_are_collision_free_despite_no_coloring() {
        let coo = gen::power_law(32, 32, 200, 1.8, 5);
        let m = CsrMatrix::from(&coo);
        let plan = WindowPlan::new(&m, 8, false);
        for wi in 0..plan.window_count() {
            let (schedule, _) = arbitrate_to_schedule(&plan.window(&m, wi), 8);
            for c in 0..schedule.colors() {
                let bucket: Vec<_> = schedule.iter_color(c).collect();
                let mut lanes: Vec<u32> = bucket.iter().map(|s| s.lane).collect();
                lanes.sort_unstable();
                assert!(lanes.windows(2).all(|p| p[0] != p[1]));
                let mut adders: Vec<u32> = bucket.iter().map(|s| s.row_mod).collect();
                adders.sort_unstable();
                assert!(adders.windows(2).all(|p| p[0] != p[1]));
            }
        }
    }

    #[test]
    fn naive_never_beats_the_vizing_bound() {
        for seed in 0..6 {
            let coo = gen::uniform(16, 16, 80, seed);
            let m = CsrMatrix::from(&coo);
            let plan = WindowPlan::new(&m, 4, false);
            for wi in 0..plan.window_count() {
                let w = plan.window(&m, wi);
                let (_, outcome) = arbitrate_to_schedule(&w, 4);
                assert!(outcome.cycles as usize >= w.vizing_bound(4));
            }
        }
    }

    #[test]
    fn naive_is_much_worse_than_edge_coloring_on_dense_input() {
        use crate::schedule::edge_coloring::color_window_grouped;
        let mut ws = ColoringWorkspace::new();
        let mut naive_total = 0u64;
        let mut ec_total = 0u64;
        for seed in 0..4 {
            let coo = gen::uniform(32, 32, 512, seed);
            let m = CsrMatrix::from(&coo);
            let plan = WindowPlan::new(&m, 8, false);
            for wi in 0..plan.window_count() {
                let w = plan.window(&m, wi);
                naive_total += u64::from(arbitrate_window(&w, 8, &mut ws.scratch).cycles);
                ec_total += u64::from(color_window_grouped(&w, 8, &mut ws.scratch));
            }
        }
        assert!(
            naive_total as f64 > 2.0 * ec_total as f64,
            "naive {naive_total} should far exceed EC {ec_total} on dense inputs"
        );
    }

    #[test]
    fn degenerates_toward_serial_at_high_density() {
        // Fully dense window: every position collides everywhere, so the
        // cycle count approaches nnz (the §3.3 naive-worse-than-1D regime).
        let coo = gen::uniform(8, 8, 64, 9);
        let m = CsrMatrix::from(&coo);
        let plan = WindowPlan::new(&m, 8, false);
        let w = plan.window(&m, 0);
        let (_, outcome) = arbitrate_to_schedule(&w, 8);
        assert!(
            f64::from(outcome.cycles) > 0.75 * 64.0,
            "expected near-serial drain, got {} cycles",
            outcome.cycles
        );
    }
}
