//! Cache-blocked column bands: the body of every row tile of a
//! [`super::tiled::TiledSchedule`].
//!
//! On matrices whose operand vector exceeds the last-level cache, the
//! random `x[col]` gathers dominate execution and the window-local
//! staging heuristic of PR 3 only rescues hub-concentrated shapes. The
//! RACE line of work shows the fix: compose the coloring with
//! **cache-aware column blocking**. This module partitions the columns
//! into [`ColumnBands`] sized so one band's operand slice fits a
//! configurable cache budget ([`crate::GustConfig::with_cache_budget`]),
//! colors each window × band sub-graph independently, and stores the
//! result as a [`BandedSchedule`] — one tile's body, never a plan of its
//! own: a one-tile tiled schedule *is* the column-banded schedule. Per
//! window it holds one structure-of-arrays
//! slot stream ordered **band-major** with CSR-style band offsets
//! ([`BandedWindow::band_slots`]) and a parallel **band-local** column
//! array ([`BandedWindow::local_cols`]), so a band walk can index
//! straight into the band's slice of `x`.
//!
//! # Bit-identity
//!
//! Concatenating the per-band colorings of one window yields a *valid*
//! ordinary [`WindowSchedule`] (each color bucket still came from one
//! collision-free band coloring), exposed by
//! [`BandedSchedule::to_unbanded`]. Within one color every adder receives
//! at most one product, so an adder's accumulation order is exactly the
//! slot order of the slots that target it — which is the same whether
//! the engine walks the merged window flat (unbanded) or band by band
//! with accumulator carry (banded). Banded execution is therefore
//! **bit-identical** to unbanded execution of [`BandedSchedule::to_unbanded`]
//! under every backend (the SIMD kernels vectorize multiplies, which are
//! IEEE-exact, and keep per-accumulator add order); with a single band
//! the banded schedule *is* the ordinary schedule, coloring and all.
//! `tests/tiled_equivalence.rs` pins both properties.
//!
//! # Cost model
//!
//! Banding trades colors for locality: `Σ_b colors(w, b) ≥ colors(w)`,
//! so the modeled accelerator cycle count can only grow (the per-band
//! Vizing bounds still hold). The host-side win is that every gather in
//! a band pass hits a cache-resident slice — the software analog of
//! streaming the input vector through an on-chip buffer one partition at
//! a time.

use super::scheduled::{ScheduledMatrix, WindowSchedule};
use std::ops::Range;

/// A partition of the column range into contiguous bands.
///
/// Band `b` covers columns `starts[b]..starts[b + 1]`; bands are
/// non-empty except for the degenerate `cols == 0` case, which gets one
/// empty band so every matrix has at least one band.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ColumnBands {
    starts: Vec<u32>,
}

impl ColumnBands {
    /// Partitions `cols` columns so that one band's operand slice at the
    /// **effective batch width** — `band_cols × batch` elements of
    /// `elem_bytes` each — fits in `budget_bytes`.
    ///
    /// `batch` is the number of right-hand sides a band walk streams per
    /// pass: **1** for single-vector [`crate::Gust::execute`] walks, the
    /// backend's register block (or the batch size, whichever is
    /// smaller) for [`crate::Gust::execute_batch`]. Earlier revisions
    /// always divided the budget by the register block, which handed
    /// single-vector walks bands `reg_block×` narrower than the budget
    /// allows and cost ~35 % to accumulator re-streaming on uniform
    /// LLC-exceeding shapes — sizing is now a per-call decision threaded
    /// from the scheduling entry points.
    ///
    /// `elem_bytes` is the operand element width (4 for f32 walks, 8 for
    /// f64): an f64 band slice occupies twice the cache per column, so
    /// the budget halves the band width rather than silently assuming
    /// 4-byte operands.
    ///
    /// # Panics
    ///
    /// Panics if `budget_bytes`, `batch` or `elem_bytes` is zero.
    #[must_use]
    pub fn for_budget(cols: usize, budget_bytes: usize, batch: usize, elem_bytes: usize) -> Self {
        assert!(budget_bytes > 0, "cache budget must be non-zero");
        assert!(batch > 0, "effective batch width must be non-zero");
        assert!(elem_bytes > 0, "element width must be non-zero");
        let band_cols = (budget_bytes / (elem_bytes * batch)).max(1);
        let count = cols.div_ceil(band_cols).max(1);
        Self::with_count(cols, count)
    }

    /// Partitions `cols` columns into exactly `count` near-equal bands
    /// (used by tests and tuning sweeps; production sizing goes through
    /// [`ColumnBands::for_budget`]).
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or exceeds `max(cols, 1)`.
    #[must_use]
    pub fn with_count(cols: usize, count: usize) -> Self {
        assert!(count > 0, "need at least one band");
        assert!(
            count <= cols.max(1),
            "cannot split {cols} columns into {count} non-empty bands"
        );
        let starts = (0..=count).map(|b| (b * cols / count) as u32).collect();
        Self { starts }
    }

    /// Rebuilds a partition from explicit boundaries (the serializer's
    /// path; boundaries were validated by the reader).
    ///
    /// # Panics
    ///
    /// Panics if fewer than two boundaries or a descending pair.
    #[must_use]
    pub(crate) fn from_starts(starts: Vec<u32>) -> Self {
        assert!(starts.len() >= 2, "need at least one band");
        assert!(
            starts.windows(2).all(|w| w[0] <= w[1]) && starts[0] == 0,
            "band boundaries must ascend from 0"
        );
        Self { starts }
    }

    /// Number of bands.
    #[must_use]
    pub fn count(&self) -> usize {
        self.starts.len() - 1
    }

    /// The band boundaries: `starts()[b]..starts()[b + 1]` is band `b`.
    #[must_use]
    pub fn starts(&self) -> &[u32] {
        &self.starts
    }

    /// The column range of band `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b >= self.count()`.
    #[must_use]
    pub fn range(&self, b: usize) -> Range<u32> {
        self.starts[b]..self.starts[b + 1]
    }

    /// Total columns covered.
    #[must_use]
    pub fn cols(&self) -> usize {
        *self.starts.last().expect("at least one boundary") as usize
    }
}

/// A density-aware band-count decision for one row tile.
///
/// The cache budget alone gives a **lower** bound on the band count
/// (narrower bands keep a band's operand slice resident), but it is not
/// the whole story: a row with `d` non-zeros touches at most `d`
/// distinct bands, so once the band count passes the average row degree,
/// extra bands stop making any gather cheaper while every additional
/// band re-streams each window's accumulator bank one more time. RACE
/// (Alappat et al.) makes the same observation for coloring-based SpMV:
/// the blocking must be chosen per matrix from its structure, not from
/// the cache geometry alone.
///
/// [`BandPlan::choose_for_tile`] therefore takes the budget-implied count
/// ([`BandPlan::budget_bands`]) and caps it at the nnz/row density
/// ([`BandPlan::density_cap`]) — per window of `l` rows, a band then
/// averages at least `l` scheduled slots, one useful multiply–accumulate
/// per accumulator value the band sweep re-streams — and at the tile's
/// per-column gather count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BandPlan {
    bands: ColumnBands,
    budget_bands: usize,
    density_cap: usize,
}

impl BandPlan {
    /// Chooses a band partition for a `rows × cols` row tile with `nnz`
    /// non-zeros, walked at effective batch width `batch` (1 for
    /// single-vector walks, the per-block panel width for batched ones)
    /// with operand elements `elem_bytes` wide (4 for f32, 8 for f64)
    /// under a cache budget of `budget_bytes`.
    ///
    /// The count is the budget-implied band count capped at the average
    /// row degree and at the tile's per-column gather count,
    /// `max(1, nnz / cols)`, and always within `1..=max(cols, 1)`. The
    /// gather cap matters because banding pays only when the *tile
    /// itself* re-gathers a band's columns: a hyper-sparse tile (fewer
    /// non-zeros than columns) touches each operand at most about once,
    /// so its band sweeps would re-stream band-sized operand slices with
    /// no reuse to show for it. Degenerate shapes (`cols == 0`, empty
    /// tiles, budgets below one column slice) all resolve to a valid
    /// partition rather than panicking.
    ///
    /// # Panics
    ///
    /// Panics if `budget_bytes`, `batch` or `elem_bytes` is zero.
    #[must_use]
    pub fn choose_for_tile(
        rows: usize,
        cols: usize,
        nnz: usize,
        batch: usize,
        elem_bytes: usize,
        budget_bytes: usize,
    ) -> Self {
        assert!(budget_bytes > 0, "cache budget must be non-zero");
        assert!(batch > 0, "effective batch width must be non-zero");
        assert!(elem_bytes > 0, "element width must be non-zero");
        let band_cols = (budget_bytes / (elem_bytes * batch)).max(1);
        let budget_bands = cols.div_ceil(band_cols).max(1);
        let density_cap = (nnz / rows.max(1)).max(1);
        let reuse_cap = (nnz / cols.max(1)).max(1);
        let count = budget_bands
            .min(density_cap)
            .min(reuse_cap)
            .min(cols.max(1))
            .max(1);
        Self {
            bands: ColumnBands::with_count(cols, count),
            budget_bands,
            density_cap,
        }
    }

    /// The chosen partition.
    #[must_use]
    pub fn bands(&self) -> &ColumnBands {
        &self.bands
    }

    /// Consumes the plan, yielding the partition.
    #[must_use]
    pub fn into_bands(self) -> ColumnBands {
        self.bands
    }

    /// Bands chosen (equals `self.bands().count()`).
    #[must_use]
    pub fn count(&self) -> usize {
        self.bands.count()
    }

    /// The band count the cache budget alone would have demanded.
    #[must_use]
    pub fn budget_bands(&self) -> usize {
        self.budget_bands
    }

    /// The nnz/row density cap applied to [`BandPlan::budget_bands`].
    #[must_use]
    pub fn density_cap(&self) -> usize {
        self.density_cap
    }
}

/// One window of a [`BandedSchedule`]: the merged (band-major)
/// [`WindowSchedule`] plus the band offsets and band-local columns the
/// banded walk indexes with.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct BandedWindow {
    /// The bands' schedules concatenated band-major: colors summed, slot
    /// arrays appended, global column indices. A valid ordinary window.
    window: WindowSchedule,
    /// `band_slot_ptr[b]..band_slot_ptr[b + 1]` indexes the slot arrays
    /// for band `b` (CSR-style, length `bands + 1`).
    band_slot_ptr: Vec<u32>,
    /// Per slot, the column rebased to its band:
    /// `local_cols[i] = cols[i] - band_start(band of i)`. What the band
    /// walk feeds the gather kernels, so indices stay inside the band's
    /// operand slice.
    local_cols: Vec<u32>,
}

impl BandedWindow {
    /// Merges per-band window schedules (global columns, one per band —
    /// possibly empty) into the band-major layout.
    ///
    /// # Panics
    ///
    /// Panics if `bands.len() + 1 != band_starts.len()` or a band's
    /// columns fall outside its range.
    #[must_use]
    pub(crate) fn from_bands(bands: &[WindowSchedule], band_starts: &[u32]) -> Self {
        assert_eq!(bands.len() + 1, band_starts.len(), "band count mismatch");
        let nnz: usize = bands.iter().map(WindowSchedule::nnz).sum();
        let colors: u32 = bands.iter().map(WindowSchedule::colors).sum();
        let stalls: u64 = bands.iter().map(WindowSchedule::stalls).sum();
        // The merged window's bound: any band's bound is a valid lower
        // bound on its own colors, so the max is a valid (if loose, for
        // multiple bands) bound on the sum. With one band it is exact.
        let vizing = bands
            .iter()
            .map(WindowSchedule::vizing_bound)
            .max()
            .unwrap_or(0);

        let mut color_ptr = Vec::with_capacity(colors as usize + 1);
        let mut lanes = Vec::with_capacity(nnz);
        let mut row_mods = Vec::with_capacity(nnz);
        let mut cols = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        let mut local_cols = Vec::with_capacity(nnz);
        let mut band_slot_ptr = Vec::with_capacity(bands.len() + 1);
        color_ptr.push(0u32);
        band_slot_ptr.push(0u32);
        for (b, band) in bands.iter().enumerate() {
            let base = lanes.len() as u32;
            let start = band_starts[b];
            let end = band_starts[b + 1];
            for &ptr in &band.color_ptr()[1..] {
                color_ptr.push(base + ptr);
            }
            lanes.extend_from_slice(band.lanes());
            row_mods.extend_from_slice(band.row_mods());
            values.extend_from_slice(band.values());
            for &c in band.cols() {
                assert!(
                    c >= start && c < end,
                    "band {b}: column {c} outside [{start}, {end})"
                );
                cols.push(c);
                local_cols.push(c - start);
            }
            band_slot_ptr.push(lanes.len() as u32);
        }
        let window = WindowSchedule::from_soa(
            colors, vizing, stalls, color_ptr, lanes, row_mods, cols, values,
        );
        Self {
            window,
            band_slot_ptr,
            local_cols,
        }
    }

    /// Rebuilds a banded window from a merged window plus its band slot
    /// offsets (the serializer's path), revalidating that every slot's
    /// column sits inside its band. Returns a description of the first
    /// violation instead of a window.
    pub(crate) fn from_merged(
        window: WindowSchedule,
        band_slot_ptr: Vec<u32>,
        band_starts: &[u32],
    ) -> Result<Self, String> {
        if band_slot_ptr.len() != band_starts.len() {
            return Err(format!(
                "band pointer length {} inconsistent with {} bands",
                band_slot_ptr.len(),
                band_starts.len() - 1
            ));
        }
        if band_slot_ptr.first() != Some(&0)
            || band_slot_ptr.last().copied() != Some(window.nnz() as u32)
            || band_slot_ptr.windows(2).any(|w| w[0] > w[1])
        {
            return Err("band slot pointers must ascend from 0 to nnz".into());
        }
        let mut local_cols = Vec::with_capacity(window.nnz());
        for b in 0..band_slot_ptr.len() - 1 {
            let (start, end) = (band_starts[b], band_starts[b + 1]);
            for i in band_slot_ptr[b] as usize..band_slot_ptr[b + 1] as usize {
                let c = window.cols()[i];
                if c < start || c >= end {
                    return Err(format!("band {b}: column {c} outside [{start}, {end})"));
                }
                local_cols.push(c - start);
            }
        }
        Ok(Self {
            window,
            band_slot_ptr,
            local_cols,
        })
    }

    /// The merged band-major window (global columns) — what
    /// [`BandedSchedule::to_unbanded`] collects.
    #[must_use]
    pub fn window(&self) -> &WindowSchedule {
        &self.window
    }

    /// The slot range of band `b` into the window's slot arrays (and
    /// into [`BandedWindow::local_cols`]).
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    #[must_use]
    pub fn band_slots(&self, b: usize) -> Range<usize> {
        self.band_slot_ptr[b] as usize..self.band_slot_ptr[b + 1] as usize
    }

    /// The CSR-style per-band slot offsets (length `bands + 1`).
    #[must_use]
    pub fn band_slot_ptr(&self) -> &[u32] {
        &self.band_slot_ptr
    }

    /// Per-slot band-local column indices (see the struct docs).
    #[must_use]
    pub fn local_cols(&self) -> &[u32] {
        &self.local_cols
    }

    /// Non-zeros scheduled in this window.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.window.nnz()
    }
}

/// One row tile's cache-blocked column-band schedule — the banded
/// counterpart of [`ScheduledMatrix`]. Built only as a tile of a
/// [`super::tiled::TiledSchedule`] and walked by
/// [`crate::Gust::execute_tiled`] / [`crate::Gust::execute_batch_tiled`].
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct BandedSchedule {
    length: usize,
    rows: usize,
    cols: usize,
    nnz: usize,
    row_perm: Vec<u32>,
    bands: ColumnBands,
    windows: Vec<BandedWindow>,
}

impl BandedSchedule {
    /// Assembles a banded tile body from its parts. Crate-internal:
    /// produced by the scheduler and the `GUTL` reader, both of which
    /// guarantee (or validate) the band invariants.
    ///
    /// # Panics
    ///
    /// Panics if the band partition does not cover `cols`, a window's
    /// band count disagrees with the partition, an adder index reaches
    /// `length`, or a row-permutation entry reaches `rows` — the bounds
    /// the SIMD execution kernels rely on.
    #[must_use]
    pub(crate) fn from_parts(
        length: usize,
        rows: usize,
        cols: usize,
        row_perm: Vec<u32>,
        bands: ColumnBands,
        windows: Vec<BandedWindow>,
    ) -> Self {
        assert_eq!(bands.cols(), cols, "band partition must cover all columns");
        let nnz = windows.iter().map(BandedWindow::nnz).sum();
        for (w, window) in windows.iter().enumerate() {
            assert_eq!(
                window.band_slot_ptr.len(),
                bands.count() + 1,
                "window {w}: band count mismatch"
            );
            let max_adder = window.window.row_mods().iter().copied().max().unwrap_or(0);
            assert!(
                window.window.row_mods().is_empty() || (max_adder as usize) < length,
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
            bands,
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

    /// The column-band partition.
    #[must_use]
    pub fn bands(&self) -> &ColumnBands {
        &self.bands
    }

    /// Per-window banded schedules, in execution order.
    #[must_use]
    pub fn windows(&self) -> &[BandedWindow] {
        &self.windows
    }

    /// The row permutation (`scheduled position → original row`).
    #[must_use]
    pub fn row_perm(&self) -> &[u32] {
        &self.row_perm
    }

    /// Rows covered by window `w` (as [`ScheduledMatrix::window_rows`]).
    ///
    /// # Panics
    ///
    /// Panics if `w` is out of range.
    #[must_use]
    pub fn window_rows(&self, w: usize) -> usize {
        assert!(w < self.windows.len(), "window {w} out of range");
        (self.rows - w * self.length).min(self.length)
    }

    /// Total colors across windows and bands — the banded streaming cycle
    /// count. At least [`ScheduledMatrix::total_colors`] of the unbanded
    /// schedule: banding trades modeled cycles for host cache locality.
    #[must_use]
    pub fn total_colors(&self) -> u64 {
        self.windows
            .iter()
            .map(|w| u64::from(w.window.colors()))
            .sum()
    }

    /// Total stalled lane-cycles (naive scheduling only).
    #[must_use]
    pub fn total_stalls(&self) -> u64 {
        self.windows.iter().map(|w| w.window.stalls()).sum()
    }

    /// Strips the band metadata: the merged windows as an ordinary
    /// [`ScheduledMatrix`], executable by the unbanded engine. Banded
    /// execution is bit-identical to unbanded execution of this schedule
    /// (see the module docs); with one band this *is* the schedule
    /// [`crate::schedule::Scheduler::schedule`] would have produced.
    #[must_use]
    pub fn to_unbanded(&self) -> ScheduledMatrix {
        ScheduledMatrix::from_parts(
            self.length,
            self.rows,
            self.cols,
            self.row_perm.clone(),
            self.windows.iter().map(|w| w.window.clone()).collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_count_covers_all_columns_in_order() {
        for (cols, count) in [(9usize, 2usize), (100, 7), (5, 5), (1, 1), (64, 1)] {
            let bands = ColumnBands::with_count(cols, count);
            assert_eq!(bands.count(), count);
            assert_eq!(bands.cols(), cols);
            assert_eq!(bands.starts()[0], 0);
            for b in 0..count {
                let r = bands.range(b);
                assert!(r.start < r.end, "{cols} cols / {count}: empty band {b}");
            }
        }
    }

    #[test]
    fn for_budget_sizes_the_batched_slice() {
        // 1 KiB budget, reg_block 8 → 32 columns per band.
        let bands = ColumnBands::for_budget(100, 1024, 8, 4);
        assert_eq!(bands.count(), 4); // ceil(100 / 32)
        for b in 0..bands.count() {
            let width = bands.range(b).len();
            assert!(width * 8 * 4 <= 1024 + 8 * 4, "band {b} width {width}");
        }
        // A budget covering everything yields one band.
        assert_eq!(ColumnBands::for_budget(100, 1 << 20, 8, 4).count(), 1);
    }

    #[test]
    fn zero_cols_gets_one_empty_band() {
        let bands = ColumnBands::for_budget(0, 1024, 8, 4);
        assert_eq!(bands.count(), 1);
        assert_eq!(bands.cols(), 0);
    }

    #[test]
    #[should_panic(expected = "non-empty bands")]
    fn more_bands_than_columns_panics() {
        let _ = ColumnBands::with_count(3, 4);
    }

    #[test]
    fn for_budget_takes_the_effective_batch_width() {
        // Single-vector sizing (batch = 1) must not divide the budget by
        // the register block: 1 KiB covers 256 single-vector columns but
        // only 32 batched ones.
        let single = ColumnBands::for_budget(1000, 1024, 1, 4);
        let batched = ColumnBands::for_budget(1000, 1024, 8, 4);
        assert_eq!(single.count(), 4); // ceil(1000 / 256)
        assert_eq!(batched.count(), 32); // ceil(1000 / 32)
        assert!(single.count() <= batched.count());
    }

    #[test]
    fn for_budget_handles_degenerate_budgets() {
        // A budget smaller than one column slice degenerates to one
        // column per band, never zero-width bands.
        let bands = ColumnBands::for_budget(5, 1, 8, 4);
        assert_eq!(bands.count(), 5);
        for b in 0..bands.count() {
            assert_eq!(bands.range(b).len(), 1);
        }
        assert_eq!(ColumnBands::for_budget(0, 1, 8, 4).count(), 1);
    }

    #[test]
    fn band_plan_caps_the_band_count_at_the_row_density() {
        // 4096 rows × 4096 cols × 8 nnz/row under a budget that would
        // demand 64 batched bands: the density cap wins at 8.
        let plan = BandPlan::choose_for_tile(4096, 4096, 8 * 4096, 8, 4, 4096 * 4 * 8 / 64);
        assert_eq!(plan.budget_bands(), 64);
        assert_eq!(plan.density_cap(), 8);
        assert_eq!(plan.count(), 8);
        // A generous budget keeps one band regardless of density.
        assert_eq!(
            BandPlan::choose_for_tile(4096, 4096, 8 * 4096, 8, 4, 1 << 30).count(),
            1
        );
    }

    #[test]
    fn band_plan_handles_degenerate_shapes() {
        // cols == 0: one empty band.
        let plan = BandPlan::choose_for_tile(10, 0, 0, 8, 4, 1024);
        assert_eq!(plan.count(), 1);
        assert_eq!(plan.bands().cols(), 0);
        // Empty matrix: density cap clamps to one band.
        assert_eq!(BandPlan::choose_for_tile(0, 64, 0, 1, 4, 1024).count(), 1);
        // Budget below one column slice: never more bands than columns
        // (with_count would panic otherwise), still density-capped.
        let tiny = BandPlan::choose_for_tile(2, 7, 1000, 8, 4, 1);
        assert!(tiny.count() <= 7);
        assert_eq!(tiny.bands().cols(), 7);
    }

    #[test]
    fn tile_plans_cap_bands_at_the_per_column_gather_count() {
        // A hyper-sparse tile (fewer non-zeros than columns) gains
        // nothing from bands: one band, regardless of what the budget
        // would demand.
        let tile = BandPlan::choose_for_tile(32 * 1024, 1 << 20, 6 * 32 * 1024, 8, 4, 1 << 20);
        assert_eq!(tile.count(), 1);
        assert!(tile.budget_bands() > 1 && tile.density_cap() > 1);
        // The same columns re-gathered six times each keep the
        // density-capped budget count.
        let reused = BandPlan::choose_for_tile(1 << 20, 1 << 20, 6 << 20, 8, 4, 1 << 20);
        assert_eq!(reused.count(), 6);
        // A dense tile keeps the budget-implied count.
        let dense = BandPlan::choose_for_tile(1024, 512, 64 * 1024, 8, 4, 1024);
        assert_eq!(dense.count(), dense.budget_bands());
        // Degenerate columns stay valid.
        assert_eq!(BandPlan::choose_for_tile(10, 0, 0, 8, 4, 1024).count(), 1);
    }

    #[test]
    fn f64_operands_halve_the_band_width() {
        // The ISSUE 7 fix pinned: the budget divides by the element
        // width, so an f64 band holds half the columns of an f32 band
        // under the same budget (and the plan doubles its band count
        // until a structural cap takes over).
        let f32_bands = ColumnBands::for_budget(1024, 4096, 8, 4);
        let f64_bands = ColumnBands::for_budget(1024, 4096, 8, 8);
        assert_eq!(f32_bands.count(), 8); // ceil(1024 / 128)
        assert_eq!(f64_bands.count(), 16); // ceil(1024 / 64)

        let f32_plan = BandPlan::choose_for_tile(1024, 4096, 64 * 1024, 8, 4, 4096);
        let f64_plan = BandPlan::choose_for_tile(1024, 4096, 64 * 1024, 8, 8, 4096);
        assert_eq!(f64_plan.budget_bands(), 2 * f32_plan.budget_bands());
        assert!(f64_plan.count() >= f32_plan.count());
    }

    #[test]
    fn band_plan_single_vector_needs_no_more_bands_than_batched() {
        // The PR 4 mis-sizing pinned: for the same budget, the
        // single-vector plan must never be finer than the batched plan.
        for (rows, cols, nnz) in [(512usize, 4096usize, 32 * 512usize), (64, 100, 6400)] {
            for budget in [256usize, 4096, 1 << 20] {
                let single = BandPlan::choose_for_tile(rows, cols, nnz, 1, 4, budget);
                let batched = BandPlan::choose_for_tile(rows, cols, nnz, 8, 4, budget);
                assert!(
                    single.count() <= batched.count(),
                    "{rows}x{cols}/{nnz} at {budget}: single {} > batched {}",
                    single.count(),
                    batched.count()
                );
            }
        }
    }
}
