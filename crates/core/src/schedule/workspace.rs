//! Reusable scratch arenas for the scheduling pipeline.
//!
//! The paper's one-time preprocessing cost (Table 4 "Pre.") is dominated by
//! per-window work: materialize the window, color it, assemble the slots.
//! The seed implementation allocated nested `Vec<Vec<_>>` per window *and*
//! per color; on large matrices that makes the allocator the bottleneck.
//! [`ColoringWorkspace`] holds every buffer the per-window pipeline needs —
//! the flat [`Window`] itself, the load balancer's segment table, the
//! coloring algorithms' scratch, and the per-edge color assignment — so a
//! worker processes an arbitrary number of windows with a bounded number of
//! allocations.
//!
//! The flow per window:
//!
//! 1. [`crate::schedule::windows::WindowPlan::fill_window`] refills
//!    `workspace.window` in place.
//! 2. A coloring algorithm (`color_window_*`, `arbitrate_window`) writes a
//!    color per edge into `ColorScratch::edge_color` and returns the
//!    color count.
//! 3. [`ColorScratch::assemble`] counting-sorts the edges by color into a
//!    tight, exactly-sized [`WindowSchedule`] (the only allocation that
//!    survives the window).

use super::scheduled::WindowSchedule;
use super::windows::{LaneScratch, Window};

/// Sentinel for "no color assigned yet" in scratch tables.
pub(crate) const NONE: u32 = u32::MAX;

/// Groups per block of the grouped colorer's block-skip index (one lane
/// bitmask per block).
pub(crate) const GROUP_BLOCK: usize = 64;

/// One lane group of one row (grouped coloring): the edges
/// `group_edges[head..end]` all sit on `lane`, in stored (column) order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct GroupState {
    /// Multiplier lane shared by the group's edges.
    pub(crate) lane: u32,
    /// Cursor into `ColorScratch::group_edges`: next uncolored edge.
    pub(crate) head: u32,
    /// One past the group's last edge in `ColorScratch::group_edges`.
    pub(crate) end: u32,
}

/// Scratch buffers shared by all four scheduling algorithms.
///
/// All fields are reused across windows; none carries meaning between
/// calls. See the module docs for the lifecycle.
#[derive(Debug, Clone, Default)]
pub struct ColorScratch {
    /// Per-edge color assignment, indexed by the window's flat edge id.
    pub(crate) edge_color: Vec<u32>,
    /// Per-lane color stamp (greedy matching: `matched[lane] == color`
    /// means the lane is taken this color).
    pub(crate) matched: Vec<u32>,
    /// Live local-row worklist.
    pub(crate) live: Vec<u32>,
    /// Remaining (uncolored) edges per local row.
    pub(crate) row_remaining: Vec<u32>,
    /// Per-edge "already colored" flags (verbatim scan).
    pub(crate) taken: Vec<bool>,
    /// Per-row cursor past the leading colored edges (verbatim scan).
    pub(crate) row_cursor: Vec<u32>,
    /// Per-group state (lane, cursor, end), all rows concatenated, in
    /// first-occurrence order within each row (grouped coloring). One
    /// contiguous array-of-structs so the per-color scan reads one cache
    /// line per group instead of three.
    pub(crate) groups: Vec<GroupState>,
    /// Edge ids per group, grouped-contiguous (grouped coloring).
    pub(crate) group_edges: Vec<u32>,
    /// Write cursor per group during bucket placement; also reused as the
    /// per-lane cursor of the naive arbiter.
    pub(crate) group_head: Vec<u32>,
    /// Row → range of groups (grouped coloring).
    pub(crate) row_group_ptr: Vec<u32>,
    /// Per-row cursor past the leading exhausted groups (grouped
    /// coloring): groups drain roughly front-to-back, so advancing this
    /// start keeps late color passes from rescanning dead groups.
    pub(crate) row_group_start: Vec<u32>,
    /// Row → first block index (grouped coloring). Each row's groups are
    /// chunked into blocks of [`GROUP_BLOCK`]; blocks never span rows.
    pub(crate) row_block_ptr: Vec<u32>,
    /// Per-block lane bitmask (`⌈l/64⌉` words each) over the block's
    /// *non-exhausted* groups. A color pass skips a whole block when
    /// `block_mask & !matched_mask` is zero — the key to sub-quadratic
    /// passes on heavy (power-law) windows.
    pub(crate) block_mask: Vec<u64>,
    /// Lanes matched in the current color pass, as a bitmask (grouped
    /// coloring; the stamp array `matched` serves the other algorithms).
    pub(crate) matched_mask: Vec<u64>,
    /// Lane → group index within the current row (grouped coloring).
    pub(crate) lane_slot: Vec<u32>,
    /// Per-edge group index within its row (grouped coloring build).
    pub(crate) edge_group: Vec<u32>,
    /// Local row of each flat edge id (Kőnig, naive).
    pub(crate) edge_row: Vec<u32>,
    /// `color_at_row[row * delta + c]` = edge id or [`NONE`] (Kőnig).
    pub(crate) color_at_row: Vec<u32>,
    /// `color_at_lane[lane * delta + c]` = edge id or [`NONE`] (Kőnig).
    pub(crate) color_at_lane: Vec<u32>,
    /// Alternating-path edge stack (Kőnig).
    pub(crate) path: Vec<u32>,
    /// Edge ids bucketed per lane (naive arbitration).
    pub(crate) lane_edges: Vec<u32>,
    /// Lane → range of `lane_edges` (naive arbitration).
    pub(crate) lane_ptr: Vec<u32>,
    /// Per-adder multiplicity within one lockstep position (naive).
    pub(crate) row_count: Vec<u32>,
    /// Held-back (colliding) edges of one position (naive).
    pub(crate) held: Vec<u32>,
    /// Per-lane degree scratch for the Eq. 1 bound.
    lane_deg: Vec<u32>,
    /// Slot count per color (assembly counting sort).
    color_counts: Vec<u32>,
    /// Write cursor per color (assembly counting sort).
    color_cursor: Vec<u32>,
}

impl ColorScratch {
    /// Resets the per-edge color table for a window of `nnz` edges and the
    /// lane stamp table for `l` lanes. Called by every coloring algorithm.
    pub(crate) fn begin_window(&mut self, nnz: usize, l: usize) {
        self.edge_color.clear();
        self.edge_color.resize(nnz, NONE);
        self.matched.clear();
        self.matched.resize(l, NONE);
    }

    /// The window's Vizing / Eq. 1 bound, computed into reusable scratch —
    /// same value as [`Window::vizing_bound`] without its per-call lane
    /// array allocation.
    #[must_use]
    pub fn vizing_bound(&mut self, window: &Window, l: usize) -> usize {
        self.lane_deg.clear();
        self.lane_deg.resize(l, 0);
        for e in window.edges() {
            self.lane_deg[e.lane as usize] += 1;
        }
        let lane_max = self.lane_deg.iter().copied().max().unwrap_or(0) as usize;
        let row_ptr = window.row_ptr();
        let row_max = (0..window.rows())
            .map(|i| (row_ptr[i + 1] - row_ptr[i]) as usize)
            .max()
            .unwrap_or(0);
        row_max.max(lane_max)
    }

    /// Fills [`ColorScratch::edge_row`] from the window's row pointers.
    pub(crate) fn fill_edge_rows(&mut self, window: &Window) {
        self.edge_row.clear();
        self.edge_row.reserve(window.nnz());
        let row_ptr = window.row_ptr();
        for row in 0..window.rows() {
            let len = row_ptr[row + 1] - row_ptr[row];
            self.edge_row
                .extend(std::iter::repeat_n(row as u32, len as usize));
        }
    }

    /// Counting-sorts the window's edges by assigned color into a tight
    /// [`WindowSchedule`]: slots grouped by color, sorted by lane within
    /// each color. Edges are visited in lane-major order (a second
    /// counting sort), so every color bucket comes out lane-sorted without
    /// any comparison sort. The output is written straight into the
    /// structure-of-arrays layout the execution engine streams
    /// (`values`/`cols`/`row_mods`/`lanes`); the only allocations are the
    /// exactly-sized output arrays.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if an edge is uncolored or a color holds
    /// two slots on one lane or one adder — the collisions the scheduler
    /// exists to prevent (checked by
    /// [`WindowSchedule::from_soa`]).
    #[must_use]
    pub fn assemble(
        &mut self,
        window: &Window,
        colors: u32,
        vizing_bound: u32,
        stalls: u64,
    ) -> WindowSchedule {
        let nnz = window.nnz();
        let edges = window.edges();
        debug_assert_eq!(self.edge_color.len(), nnz);
        self.fill_edge_rows(window);

        self.color_counts.clear();
        self.color_counts.resize(colors as usize, 0);
        for &c in &self.edge_color {
            debug_assert_ne!(c, NONE, "every edge must be colored");
            self.color_counts[c as usize] += 1;
        }

        let mut color_ptr = Vec::with_capacity(colors as usize + 1);
        color_ptr.push(0u32);
        let mut running = 0u32;
        for &count in &self.color_counts {
            running += count;
            color_ptr.push(running);
        }
        debug_assert_eq!(running as usize, nnz);

        // Lane-major edge order (counting sort by lane). Within one color
        // every lane occurs at most once, so visiting edges lane-by-lane
        // fills each color bucket in ascending lane order by construction.
        let l = self
            .matched
            .len()
            .max(edges.iter().map(|e| e.lane as usize + 1).max().unwrap_or(0));
        self.lane_ptr.clear();
        self.lane_ptr.resize(l + 1, 0);
        for e in edges {
            self.lane_ptr[e.lane as usize + 1] += 1;
        }
        for lane in 0..l {
            self.lane_ptr[lane + 1] += self.lane_ptr[lane];
        }
        self.lane_edges.clear();
        self.lane_edges.resize(nnz, 0);
        self.group_head.clear();
        self.group_head.extend_from_slice(&self.lane_ptr[..l]);
        for (eid, e) in edges.iter().enumerate() {
            let lane = e.lane as usize;
            let at = self.group_head[lane] as usize;
            self.group_head[lane] += 1;
            self.lane_edges[at] = eid as u32;
        }

        self.color_cursor.clear();
        self.color_cursor
            .extend_from_slice(&color_ptr[..colors as usize]);

        let mut lanes = vec![0u32; nnz];
        let mut row_mods = vec![0u32; nnz];
        let mut cols = vec![0u32; nnz];
        let mut values = vec![0.0f32; nnz];
        for &eid in &self.lane_edges {
            let eid = eid as usize;
            let e = edges[eid];
            let c = self.edge_color[eid] as usize;
            let at = self.color_cursor[c] as usize;
            self.color_cursor[c] += 1;
            lanes[at] = e.lane;
            row_mods[at] = self.edge_row[eid];
            cols[at] = e.col;
            values[at] = e.value;
        }

        WindowSchedule::from_soa(
            colors,
            vizing_bound,
            stalls,
            color_ptr,
            lanes,
            row_mods,
            cols,
            values,
        )
    }
}

/// Everything one scheduling worker needs to process windows end to end:
/// the window buffer, the load balancer's lane scratch, and the coloring
/// scratch. One instance per thread; see the module docs.
#[derive(Debug, Clone, Default)]
pub struct ColoringWorkspace {
    /// The reusable flat window buffer.
    pub window: Window,
    /// Load-balancer segment/lane scratch.
    pub lanes: LaneScratch,
    /// Coloring and assembly scratch.
    pub scratch: ColorScratch,
}

impl ColoringWorkspace {
    /// A fresh workspace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::scheduled::ScheduledSlot;
    use crate::schedule::windows::WindowPlan;
    use gust_sparse::prelude::*;

    #[test]
    fn assemble_counting_sort_matches_from_colors() {
        let m = CsrMatrix::from(&gen::uniform(24, 24, 160, 5));
        let plan = WindowPlan::new(&m, 8, false);
        let mut ws = ColoringWorkspace::new();
        for w in 0..plan.window_count() {
            plan.fill_window(&m, w, &mut ws.window, &mut ws.lanes);
            let window = &ws.window;
            // Color greedily by hand: edge k of row r gets color k (valid:
            // within a row colors are distinct; lanes may repeat across
            // rows, so keep one edge per row per color — that is exactly
            // one color per within-row index, which can collide on lanes.
            // Use a trivially valid coloring instead: color = global edge
            // index (one slot per color).
            let nnz = window.nnz();
            ws.scratch.begin_window(nnz, 8);
            for (i, c) in ws.scratch.edge_color.iter_mut().enumerate() {
                *c = i as u32;
            }
            let bound = window.vizing_bound(8) as u32;
            let assembled = ws.scratch.assemble(window, nnz as u32, bound, 0);

            let per_color: Vec<Vec<ScheduledSlot>> = (0..nnz)
                .map(|c| vec![assembled.iter_color(c as u32).next().expect("one slot")])
                .collect();
            let reference = WindowSchedule::from_colors(per_color, bound, 0);
            assert_eq!(assembled, reference);
            assert_eq!(assembled.nnz(), nnz);
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "share a lane")]
    fn assemble_detects_lane_collisions() {
        let coo = CooMatrix::from_triplets(2, 8, vec![(0, 0, 1.0), (1, 4, 2.0)]).unwrap();
        let m = CsrMatrix::from(&coo);
        let plan = WindowPlan::new(&m, 4, false);
        let mut ws = ColoringWorkspace::new();
        plan.fill_window(&m, 0, &mut ws.window, &mut ws.lanes);
        // Columns 0 and 4 both map to lane 0; one shared color collides.
        ws.scratch.begin_window(2, 4);
        ws.scratch.edge_color[0] = 0;
        ws.scratch.edge_color[1] = 0;
        let _ = ws.scratch.assemble(&ws.window, 1, 1, 0);
    }
}
