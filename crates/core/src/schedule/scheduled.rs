//! The scheduled storage format: `M_sch`, `Row_sch`, `Col_sch` (paper §3.3).
//!
//! The paper materializes three dense `l × C_total` matrices; we store the
//! same information sparsely — per color (= per cycle), the list of occupied
//! lanes with their value, destination adder and original column — which is
//! O(nnz) memory at any utilization. [`ScheduledMatrix::dense_m_sch`] and
//! friends materialize the paper's dense arrays on demand (Listing 2).
//!
//! # Layout
//!
//! A [`WindowSchedule`] is a structure of arrays: four parallel flat arrays
//! (`values`, `cols`, `row_mods`, `lanes`) indexed by slot id, plus
//! CSR-style per-color offsets (`color_ptr`). The arrays are color-major
//! (all slots of color 0, then color 1, …) and lane-sorted within each
//! color, so the execution engine streams each window as one contiguous
//! pass: the multiply-gather loop reads `values`/`cols` sequentially and
//! the per-adder accumulation order equals the per-color order the
//! hardware pipeline uses — which is what makes the fast engine bit-exact
//! against [`crate::hw::GustPipeline`] while staying autovectorizable.
//! [`ScheduledSlot`] remains as a by-value view for call sites that want
//! one record per slot (serialization, tests, the structural pipeline).

use gust_sparse::CsrMatrix;
use std::ops::Range;

/// One occupied slot of the schedule: at some cycle, lane `lane` multiplies
/// `value` by vector element `col` and the crossbar routes the product to
/// adder `row_mod`.
///
/// This is a *view* assembled on demand from the structure-of-arrays
/// storage of [`WindowSchedule`]; it is not how slots are stored.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledSlot {
    /// Multiplier lane, `0..l` (which multiplier consumes this element).
    pub lane: u32,
    /// Destination adder = local row position within the window
    /// (the paper's `Row_sch` entry, `row mod l`).
    pub row_mod: u32,
    /// Original column index (the paper's `Col_sch` entry; vector lookup).
    pub col: u32,
    /// Matrix value (the paper's `M_sch` entry).
    pub value: f32,
}

/// The schedule of one window (one set of `l` rows), stored as a structure
/// of arrays (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSchedule {
    /// Colors used by this window = cycles to stream it.
    colors: u32,
    /// The Eq. 1 lower bound for this window (max bipartite degree).
    vizing_bound: u32,
    /// Stalled lane-cycles (non-zero only under naive scheduling).
    stalls: u64,
    /// `color_ptr[c]..color_ptr[c+1]` indexes the slot arrays for color `c`.
    color_ptr: Vec<u32>,
    /// Multiplier lane per slot, ascending within each color.
    lanes: Vec<u32>,
    /// Destination adder (`Row_sch`) per slot.
    row_mods: Vec<u32>,
    /// Original column (`Col_sch`) per slot.
    cols: Vec<u32>,
    /// Matrix value (`M_sch`) per slot.
    values: Vec<f32>,
}

impl WindowSchedule {
    /// Assembles a window schedule directly from the structure-of-arrays
    /// representation: `color_ptr[c]..color_ptr[c+1]` must index the four
    /// slot arrays for color `c`, with slots sorted by lane within each
    /// color. This is the zero-copy constructor used by the scheduling
    /// pipeline ([`crate::schedule::workspace::ColorScratch::assemble`])
    /// and the binary reader.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the arrays disagree in length, the
    /// pointers are inconsistent, a color's slots are not sorted by lane,
    /// or any color contains two slots on one lane or one adder — those
    /// are exactly the collisions the scheduler exists to prevent.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn from_soa(
        colors: u32,
        vizing_bound: u32,
        stalls: u64,
        color_ptr: Vec<u32>,
        lanes: Vec<u32>,
        row_mods: Vec<u32>,
        cols: Vec<u32>,
        values: Vec<f32>,
    ) -> Self {
        debug_assert_eq!(color_ptr.len(), colors as usize + 1);
        debug_assert_eq!(color_ptr.first().copied(), Some(0));
        debug_assert_eq!(color_ptr.last().copied(), Some(lanes.len() as u32));
        debug_assert_eq!(lanes.len(), row_mods.len());
        debug_assert_eq!(lanes.len(), cols.len());
        debug_assert_eq!(lanes.len(), values.len());
        #[cfg(debug_assertions)]
        for c in 0..colors as usize {
            debug_assert!(color_ptr[c] <= color_ptr[c + 1], "color_ptr must be sorted");
            let bucket = color_ptr[c] as usize..color_ptr[c + 1] as usize;
            debug_assert!(
                lanes[bucket.clone()].windows(2).all(|w| w[0] < w[1]),
                "slots of one color must be lane-sorted and never share a lane"
            );
            let mut adders: Vec<u32> = row_mods[bucket].to_vec();
            adders.sort_unstable();
            debug_assert!(
                adders.windows(2).all(|w| w[0] != w[1]),
                "two slots target the same adder within one color"
            );
        }
        Self {
            colors,
            vizing_bound,
            stalls,
            color_ptr,
            lanes,
            row_mods,
            cols,
            values,
        }
    }

    /// Assembles a window schedule from per-color slot lists. Convenience
    /// constructor for tests and small examples; the pipeline itself builds
    /// the flat form directly (see [`WindowSchedule::from_soa`]).
    #[must_use]
    pub fn from_colors(per_color: Vec<Vec<ScheduledSlot>>, vizing_bound: u32, stalls: u64) -> Self {
        let colors = per_color.len() as u32;
        let total: usize = per_color.iter().map(Vec::len).sum();
        let mut color_ptr = Vec::with_capacity(per_color.len() + 1);
        let mut slots = Vec::with_capacity(total);
        color_ptr.push(0u32);
        for mut bucket in per_color {
            bucket.sort_unstable_by_key(|s| s.lane);
            slots.append(&mut bucket);
            color_ptr.push(slots.len() as u32);
        }
        Self::from_soa(
            colors,
            vizing_bound,
            stalls,
            color_ptr,
            slots.iter().map(|s| s.lane).collect(),
            slots.iter().map(|s| s.row_mod).collect(),
            slots.iter().map(|s| s.col).collect(),
            slots.iter().map(|s| s.value).collect(),
        )
    }

    /// Colors (cycles) this window occupies.
    #[must_use]
    pub fn colors(&self) -> u32 {
        self.colors
    }

    /// The Eq. 1 lower bound recorded at scheduling time.
    #[must_use]
    pub fn vizing_bound(&self) -> u32 {
        self.vizing_bound
    }

    /// Stalled lane-cycles (naive scheduling only).
    #[must_use]
    pub fn stalls(&self) -> u64 {
        self.stalls
    }

    /// Non-zeros scheduled in this window.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The slot-id range of color `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.colors()`.
    #[must_use]
    pub fn color_range(&self, c: u32) -> Range<usize> {
        self.color_ptr[c as usize] as usize..self.color_ptr[c as usize + 1] as usize
    }

    /// The CSR-style per-color offsets into the slot arrays.
    #[must_use]
    pub fn color_ptr(&self) -> &[u32] {
        &self.color_ptr
    }

    /// Multiplier lane per slot (color-major, lane-sorted within a color).
    #[must_use]
    pub fn lanes(&self) -> &[u32] {
        &self.lanes
    }

    /// Destination adder (`Row_sch`) per slot.
    #[must_use]
    pub fn row_mods(&self) -> &[u32] {
        &self.row_mods
    }

    /// Original column (`Col_sch`) per slot.
    #[must_use]
    pub fn cols(&self) -> &[u32] {
        &self.cols
    }

    /// Matrix value (`M_sch`) per slot.
    #[must_use]
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// The slot record at flat index `i` (color-major order).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.nnz()`.
    #[must_use]
    pub fn slot(&self, i: usize) -> ScheduledSlot {
        ScheduledSlot {
            lane: self.lanes[i],
            row_mod: self.row_mods[i],
            col: self.cols[i],
            value: self.values[i],
        }
    }

    /// Iterates the slots of color `c`, in ascending lane order.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.colors()`.
    pub fn iter_color(&self, c: u32) -> impl ExactSizeIterator<Item = ScheduledSlot> + '_ {
        self.color_range(c).map(move |i| self.slot(i))
    }

    /// Iterates all slots, color-major (the streaming order).
    pub fn iter_slots(&self) -> impl ExactSizeIterator<Item = ScheduledSlot> + '_ {
        (0..self.nnz()).map(move |i| self.slot(i))
    }
}

/// A fully scheduled matrix: the paper's preprocessed format, ready to
/// stream through the GUST engine any number of times (the schedule is
/// computed once per sparsity pattern; see §3.3 and the §5.3 amortization
/// discussion).
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledMatrix {
    length: usize,
    rows: usize,
    cols: usize,
    nnz: usize,
    /// `row_perm[scheduled_position] = original_row`.
    row_perm: Vec<u32>,
    windows: Vec<WindowSchedule>,
}

impl ScheduledMatrix {
    /// Assembles a schedule from its parts. Crate-internal: produced by
    /// [`crate::schedule::Scheduler`] and the binary reader.
    ///
    /// Validates — in release builds too — the index bounds the SIMD
    /// execution kernels rely on for memory safety: every slot's column is
    /// `< cols`, every destination adder is `< length`, and every row-perm
    /// entry is `< rows`. The engine's `unsafe` gather paths treat these
    /// as type invariants of `ScheduledMatrix` (fields are private and no
    /// later mutation touches indices), so they must hold for *every*
    /// construction path, including deserialized streams.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    #[must_use]
    pub(crate) fn from_parts(
        length: usize,
        rows: usize,
        cols: usize,
        row_perm: Vec<u32>,
        windows: Vec<WindowSchedule>,
    ) -> Self {
        let nnz = windows.iter().map(WindowSchedule::nnz).sum();
        for (w, window) in windows.iter().enumerate() {
            let max_col = window.cols.iter().copied().max().unwrap_or(0);
            assert!(
                window.cols.is_empty() || (max_col as usize) < cols,
                "window {w}: column {max_col} out of range for {cols} columns"
            );
            let max_adder = window.row_mods.iter().copied().max().unwrap_or(0);
            assert!(
                window.row_mods.is_empty() || (max_adder as usize) < length,
                "window {w}: adder {max_adder} out of range for length {length}"
            );
        }
        assert!(
            row_perm.iter().all(|&r| (r as usize) < rows),
            "row permutation entry out of range for {rows} rows"
        );
        Self {
            length,
            rows,
            cols,
            nnz,
            row_perm,
            windows,
        }
    }

    /// Accelerator length `l` the schedule targets.
    #[must_use]
    pub fn length(&self) -> usize {
        self.length
    }

    /// Rows of the original matrix.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns of the original matrix.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Scheduled non-zeros (equals the source matrix's nnz).
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Per-window schedules, in execution order.
    #[must_use]
    pub fn windows(&self) -> &[WindowSchedule] {
        &self.windows
    }

    /// The row permutation (`scheduled position → original row`).
    #[must_use]
    pub fn row_perm(&self) -> &[u32] {
        &self.row_perm
    }

    /// Rows covered by window `w`: `min(l, rows - w·l)`. Equal to `l` for
    /// every window except possibly the ragged final one.
    ///
    /// # Panics
    ///
    /// Panics if `w` is out of range.
    #[must_use]
    pub fn window_rows(&self, w: usize) -> usize {
        assert!(w < self.windows.len(), "window {w} out of range");
        (self.rows - w * self.length).min(self.length)
    }

    /// Total colors across windows — the streaming cycle count, to which
    /// the engine adds the pipeline depth of 2 (paper: "execution time …
    /// is the sum of the number of colors for all of the edge sets plus 2").
    #[must_use]
    pub fn total_colors(&self) -> u64 {
        self.windows.iter().map(|w| u64::from(w.colors())).sum()
    }

    /// Sum of the per-window Eq. 1 lower bounds: the fewest streaming
    /// cycles *any* collision-free schedule could achieve.
    #[must_use]
    pub fn total_vizing_bound(&self) -> u64 {
        self.windows
            .iter()
            .map(|w| u64::from(w.vizing_bound()))
            .sum()
    }

    /// Total stalled lane-cycles (naive scheduling only).
    #[must_use]
    pub fn total_stalls(&self) -> u64 {
        self.windows.iter().map(WindowSchedule::stalls).sum()
    }

    /// Predicted utilization `nnz / (l × cycles)` without running the
    /// engine. The engine's measured [`gust_sim::ExecutionReport`] matches
    /// this up to the `+2` pipeline fill.
    #[must_use]
    pub fn predicted_utilization(&self) -> f64 {
        let cycles = self.total_colors() + 2;
        if cycles == 0 {
            return 0.0;
        }
        self.nnz as f64 / (self.length as f64 * cycles as f64)
    }

    /// Bytes of the scheduled format when stored densely as the paper does:
    /// `l × C_total` cells × (32-bit value + 32-bit `Col_sch` +
    /// ⌈log₂ l⌉-bit `Row_sch`).
    #[must_use]
    pub fn dense_stream_bytes(&self) -> u64 {
        let bits_per_cell = 64 + log2_ceil(self.length) as u64;
        (self.length as u64 * self.total_colors() * bits_per_cell).div_ceil(8)
    }

    /// Refreshes the scheduled *values* from a matrix with the same
    /// sparsity pattern, without re-running the scheduler.
    ///
    /// This is the paper's §3.3 observation: "if the matrix changes but the
    /// location of NZs remain the same (as it is the case with Jacobian and
    /// Hessian matrices), the scheduling (Listing 1) does not need to be
    /// repeated, rather `M_sch` (Listing 2) needs to be updated." O(nnz).
    ///
    /// # Panics
    ///
    /// Panics if `matrix` has a different shape or sparsity pattern than
    /// the one this schedule was built from.
    pub fn update_values(&mut self, matrix: &CsrMatrix) {
        assert_eq!(self.rows, matrix.rows(), "row count mismatch");
        assert_eq!(self.cols, matrix.cols(), "column count mismatch");
        assert_eq!(self.nnz, matrix.nnz(), "sparsity pattern mismatch");
        let l = self.length;
        for (w, window) in self.windows.iter_mut().enumerate() {
            for i in 0..window.values.len() {
                let pos = w * l + window.row_mods[i] as usize;
                debug_assert!(pos < self.rows);
                let orig_row = self.row_perm[pos] as usize;
                let (cols, vals) = matrix.row(orig_row);
                let col = window.cols[i];
                let k = cols.binary_search(&col).unwrap_or_else(|_| {
                    panic!("sparsity pattern mismatch: ({orig_row}, {col}) not in matrix")
                });
                window.values[i] = vals[k];
            }
        }
    }

    /// Materializes the paper's dense `M_sch` for one window (Listing 2):
    /// an `colors × l` grid of `Option<f32>` — `M_sch[c][lane]` is the value
    /// entering multiplier `lane` at step `c`, `None` for an idle slot.
    ///
    /// # Panics
    ///
    /// Panics if `window` is out of range.
    #[must_use]
    pub fn dense_m_sch(&self, window: usize) -> Vec<Vec<Option<f32>>> {
        self.dense_window(window, |s| s.value)
    }

    /// Dense `Row_sch` for one window: `Row_sch[c][lane]` is the adder index
    /// (`row mod l`) for the element at step `c` on `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `window` is out of range.
    #[must_use]
    pub fn dense_row_sch(&self, window: usize) -> Vec<Vec<Option<u32>>> {
        self.dense_window(window, |s| s.row_mod)
    }

    /// Dense `Col_sch` for one window: `Col_sch[c][lane]` is the original
    /// column index (which vector element to multiply with).
    ///
    /// # Panics
    ///
    /// Panics if `window` is out of range.
    #[must_use]
    pub fn dense_col_sch(&self, window: usize) -> Vec<Vec<Option<u32>>> {
        self.dense_window(window, |s| s.col)
    }

    fn dense_window<T: Copy>(
        &self,
        window: usize,
        f: impl Fn(ScheduledSlot) -> T,
    ) -> Vec<Vec<Option<T>>> {
        let w = &self.windows[window];
        let mut grid = vec![vec![None; self.length]; w.colors() as usize];
        for c in 0..w.colors() {
            for s in w.iter_color(c) {
                grid[c as usize][s.lane as usize] = Some(f(s));
            }
        }
        grid
    }
}

/// `⌈log₂ l⌉` with the convention `log2_ceil(1) = 1` (one bit still needs a
/// wire), matching the paper's index-width accounting.
#[must_use]
pub fn log2_ceil(l: usize) -> u32 {
    debug_assert!(l > 0);
    if l <= 2 {
        1
    } else {
        (l - 1).ilog2() + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slot(lane: u32, row_mod: u32, col: u32, value: f32) -> ScheduledSlot {
        ScheduledSlot {
            lane,
            row_mod,
            col,
            value,
        }
    }

    #[test]
    fn window_groups_by_color_and_sorts_by_lane() {
        let w = WindowSchedule::from_colors(
            vec![
                vec![slot(2, 0, 2, 1.0), slot(0, 1, 0, 2.0)],
                vec![slot(1, 0, 1, 3.0)],
            ],
            2,
            0,
        );
        assert_eq!(w.colors(), 2);
        assert_eq!(w.nnz(), 3);
        let c0: Vec<u32> = w.iter_color(0).map(|s| s.lane).collect();
        assert_eq!(c0, vec![0, 2]);
        assert_eq!(w.color_range(1).len(), 1);
    }

    #[test]
    fn soa_arrays_are_parallel_and_color_major() {
        let w = WindowSchedule::from_colors(
            vec![
                vec![slot(0, 0, 4, 1.5), slot(1, 1, 3, 2.5)],
                vec![slot(1, 0, 1, 3.5)],
            ],
            2,
            0,
        );
        assert_eq!(w.lanes(), &[0, 1, 1]);
        assert_eq!(w.row_mods(), &[0, 1, 0]);
        assert_eq!(w.cols(), &[4, 3, 1]);
        assert_eq!(w.values(), &[1.5, 2.5, 3.5]);
        assert_eq!(w.color_ptr(), &[0, 2, 3]);
        assert_eq!(w.color_range(1), 2..3);
        assert_eq!(w.slot(2), slot(1, 0, 1, 3.5));
        let all: Vec<ScheduledSlot> = w.iter_slots().collect();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0], slot(0, 0, 4, 1.5));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "share a lane")]
    fn lane_collision_is_detected() {
        let _ =
            WindowSchedule::from_colors(vec![vec![slot(0, 0, 0, 1.0), slot(0, 1, 1, 2.0)]], 1, 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "same adder")]
    fn adder_collision_is_detected() {
        let _ =
            WindowSchedule::from_colors(vec![vec![slot(0, 3, 0, 1.0), slot(1, 3, 1, 2.0)]], 1, 0);
    }

    #[test]
    fn totals_accumulate_over_windows() {
        let w1 = WindowSchedule::from_colors(vec![vec![slot(0, 0, 0, 1.0)]], 1, 0);
        let w2 = WindowSchedule::from_colors(
            vec![vec![slot(0, 0, 0, 2.0)], vec![slot(0, 1, 0, 3.0)]],
            2,
            5,
        );
        let s = ScheduledMatrix::from_parts(2, 4, 2, vec![0, 1, 2, 3], vec![w1, w2]);
        assert_eq!(s.total_colors(), 3);
        assert_eq!(s.total_vizing_bound(), 3);
        assert_eq!(s.total_stalls(), 5);
        assert_eq!(s.nnz(), 3);
        // 3 nnz over (2 lanes × 5 cycles).
        assert!((s.predicted_utilization() - 3.0 / 10.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "window 1: column 4 out of range for 4 columns")]
    fn from_parts_rejects_an_out_of_range_slot_column() {
        let w1 = WindowSchedule::from_colors(vec![vec![slot(0, 0, 3, 1.0)]], 1, 0);
        let w2 =
            WindowSchedule::from_colors(vec![vec![slot(0, 0, 1, 2.0), slot(1, 1, 4, 3.0)]], 1, 0);
        let _ = ScheduledMatrix::from_parts(2, 4, 4, vec![0, 1, 2, 3], vec![w1, w2]);
    }

    #[test]
    #[should_panic(expected = "window 0: adder 2 out of range for length 2")]
    fn from_parts_rejects_an_out_of_range_adder() {
        let w = WindowSchedule::from_colors(vec![vec![slot(0, 2, 0, 1.0)]], 1, 0);
        let _ = ScheduledMatrix::from_parts(2, 2, 2, vec![0, 1], vec![w]);
    }

    #[test]
    fn window_rows_handles_ragged_final_window() {
        let w1 = WindowSchedule::from_colors(vec![vec![slot(0, 0, 0, 1.0)]], 1, 0);
        let w2 = WindowSchedule::from_colors(vec![vec![slot(0, 0, 0, 2.0)]], 1, 0);
        // 5 rows at l = 3: windows cover 3 and 2 rows.
        let s = ScheduledMatrix::from_parts(3, 5, 5, vec![0, 1, 2, 3, 4], vec![w1, w2]);
        assert_eq!(s.window_rows(0), 3);
        assert_eq!(s.window_rows(1), 2);
    }

    #[test]
    fn dense_materialization_round_trips() {
        let w = WindowSchedule::from_colors(
            vec![
                vec![slot(0, 0, 4, 1.5), slot(1, 1, 3, 2.5)],
                vec![slot(1, 0, 1, 3.5)],
            ],
            2,
            0,
        );
        let s = ScheduledMatrix::from_parts(2, 2, 5, vec![0, 1], vec![w]);
        let m_sch = s.dense_m_sch(0);
        assert_eq!(m_sch.len(), 2); // colors
        assert_eq!(m_sch[0], vec![Some(1.5), Some(2.5)]);
        assert_eq!(m_sch[1], vec![None, Some(3.5)]);
        let row_sch = s.dense_row_sch(0);
        assert_eq!(row_sch[0], vec![Some(0), Some(1)]);
        let col_sch = s.dense_col_sch(0);
        assert_eq!(col_sch[1], vec![None, Some(1)]);
    }

    #[test]
    fn dense_stream_bytes_counts_all_cells() {
        let w = WindowSchedule::from_colors(vec![vec![slot(0, 0, 0, 1.0)], vec![]], 1, 0);
        let s = ScheduledMatrix::from_parts(4, 4, 4, vec![0, 1, 2, 3], vec![w]);
        // 2 colors × 4 lanes × (64 + 2) bits = 528 bits = 66 bytes.
        assert_eq!(s.dense_stream_bytes(), 66);
    }

    #[test]
    fn log2_ceil_values() {
        assert_eq!(log2_ceil(1), 1);
        assert_eq!(log2_ceil(2), 1);
        assert_eq!(log2_ceil(3), 2);
        assert_eq!(log2_ceil(4), 2);
        assert_eq!(log2_ceil(87), 7);
        assert_eq!(log2_ceil(256), 8);
        assert_eq!(log2_ceil(257), 9);
    }
}
