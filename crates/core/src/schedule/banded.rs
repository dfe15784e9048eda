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
//! own: a one-tile tiled schedule *is* the column-banded schedule.
//!
//! A [`BandedSchedule`] *contains* the flat schedule
//! ([`BandedSchedule::flat`]): a [`ScheduledMatrix`] whose windows hold
//! each window's per-band colorings merged **band-major**. On top of it,
//! every window keeps CSR-style band offsets
//! ([`BandedWindow::band_slots`]) and a parallel **band-local** column
//! array ([`BandedWindow::local_cols`]), so a band walk can index
//! straight into the band's slice of `x`.
//!
//! # Bit-identity
//!
//! Concatenating the per-band colorings of one window yields a *valid*
//! ordinary [`WindowSchedule`] (each color bucket still came from one
//! collision-free band coloring). Within one color every adder receives
//! at most one product, so an adder's accumulation order is exactly the
//! slot order of the slots that target it — which is the same whether
//! the engine walks the merged window flat or band by band with
//! accumulator carry. Banded execution is therefore **bit-identical** to
//! flat execution of [`BandedSchedule::flat`] under every backend (the
//! SIMD kernels vectorize multiplies, which are IEEE-exact, and keep
//! per-accumulator add order); with a single band the engine walks
//! [`BandedSchedule::flat`] with the flat walk itself, and the flat
//! schedule is the one [`crate::schedule::Scheduler::schedule`] builds,
//! coloring and all. `tests/tiled_equivalence.rs` pins both properties.
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
use crate::verify::{self, AuditReport};
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
    /// Chooses the band partition of a `rows × cols` row tile with `nnz`
    /// non-zeros, walked at **effective batch width** `batch` with
    /// operand elements `elem_bytes` wide, under a cache budget of
    /// `budget_bytes`.
    ///
    /// The cache budget gives a **lower** bound on the band count: one
    /// band's operand slice — `band_cols × batch` elements of
    /// `elem_bytes` each — must fit it. `batch` is the number of
    /// right-hand sides a band walk streams per pass: **1** for
    /// single-vector [`crate::Gust::execute_tiled`] walks, the backend's
    /// register block (or the batch size, whichever is smaller) for
    /// batched ones — dividing a single-vector budget by the register
    /// block would hand it bands `reg_block×` narrower than the budget
    /// allows. `elem_bytes` is 4 for f32 walks and 8 for f64: an f64
    /// band slice occupies twice the cache per column.
    ///
    /// That count is then capped by the tile's structure. A row with `d`
    /// non-zeros touches at most `d` distinct bands, so past the average
    /// row degree (`nnz / rows`) extra bands stop making any gather
    /// cheaper while every additional band re-streams each window's
    /// accumulator bank once more — per window of `l` rows, a band then
    /// averages at least `l` scheduled slots. RACE (Alappat et al.) makes
    /// the same observation for coloring-based SpMV: the blocking must
    /// be chosen per matrix from its structure, not from the cache
    /// geometry alone. Banding also pays only when the tile itself
    /// re-gathers a band's columns, so the count is capped at the
    /// per-column gather count (`nnz / cols`) too: a hyper-sparse tile
    /// touches each operand at most about once, and its band sweeps
    /// would re-stream band-sized slices with no reuse to show for it.
    ///
    /// Every cap is at least one band and the budget count never exceeds
    /// `max(cols, 1)`, so degenerate shapes (`cols == 0`, empty tiles,
    /// budgets below one column slice) all resolve to a valid partition.
    ///
    /// # Panics
    ///
    /// Panics if `budget_bytes`, `batch` or `elem_bytes` is zero.
    #[must_use]
    pub fn for_tile(
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
        Self::with_count(cols, budget_bands.min(density_cap).min(reuse_cap))
    }

    /// Partitions `cols` columns into exactly `count` near-equal bands
    /// (used by tests and tuning sweeps; production sizing goes through
    /// [`ColumnBands::for_tile`]).
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

/// The band metadata of one window of a [`BandedSchedule`]: the band
/// offsets into the merged (band-major) window of
/// [`BandedSchedule::flat`] and the band-local columns the banded walk
/// indexes with.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct BandedWindow {
    /// `band_slot_ptr[b]..band_slot_ptr[b + 1]` indexes the merged
    /// window's slot arrays for band `b` (CSR-style, length `bands + 1`).
    band_slot_ptr: Vec<u32>,
    /// Per slot, the column rebased to its band:
    /// `local_cols[i] = cols[i] - band_start(band of i)`. What the band
    /// walk feeds the gather kernels, so indices stay inside the band's
    /// operand slice.
    local_cols: Vec<u32>,
}

impl BandedWindow {
    /// Merges window `w`'s per-band schedules (global columns, one per
    /// band — possibly empty) into the band-major window: colors summed,
    /// slot arrays appended, global column indices. Returns that window
    /// (a valid ordinary window) and its band metadata.
    ///
    /// # Panics
    ///
    /// Panics if `bands.len() + 1 != band_starts.len()` or a band's
    /// columns fall outside its range.
    #[must_use]
    pub(crate) fn from_bands(
        w: usize,
        bands: &[WindowSchedule],
        band_starts: &[u32],
    ) -> (WindowSchedule, Self) {
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
        let mut band_slot_ptr = Vec::with_capacity(bands.len() + 1);
        color_ptr.push(0u32);
        band_slot_ptr.push(0u32);
        for band in bands {
            let base = lanes.len() as u32;
            for &ptr in &band.color_ptr()[1..] {
                color_ptr.push(base + ptr);
            }
            lanes.extend_from_slice(band.lanes());
            row_mods.extend_from_slice(band.row_mods());
            cols.extend_from_slice(band.cols());
            values.extend_from_slice(band.values());
            band_slot_ptr.push(lanes.len() as u32);
        }
        let window = WindowSchedule::from_soa(
            colors, vizing, stalls, color_ptr, lanes, row_mods, cols, values,
        );
        let banded = Self::from_merged(w, &window, band_slot_ptr, band_starts)
            .unwrap_or_else(|report| panic!("{report}"));
        (window, banded)
    }

    /// Derives the band metadata of merged window `w` from its band slot
    /// offsets, after auditing the offsets and every slot's band
    /// containment (contract item 6 of [`crate::verify`]) on the raw
    /// arrays: the band-local columns are what the band walk's gathers
    /// index with, so they must never leave their band. The `GUTL`
    /// reader's path, and the last step of [`BandedWindow::from_bands`].
    pub(crate) fn from_merged(
        w: usize,
        window: &WindowSchedule,
        band_slot_ptr: Vec<u32>,
        band_starts: &[u32],
    ) -> Result<Self, AuditReport> {
        let mut violations = Vec::new();
        verify::audit_banded_window(
            w,
            &band_slot_ptr,
            band_starts,
            window.cols(),
            &mut violations,
        );
        if !violations.is_empty() {
            return Err(AuditReport::from_violations(violations));
        }
        let local_cols = band_slot_ptr
            .windows(2)
            .zip(band_starts)
            .flat_map(|(slots, &start)| {
                window.cols()[slots[0] as usize..slots[1] as usize]
                    .iter()
                    .map(move |&c| c - start)
            })
            .collect();
        Ok(Self {
            band_slot_ptr,
            local_cols,
        })
    }

    /// The slot range of band `b` into the merged window's slot arrays
    /// (and into [`BandedWindow::local_cols`]).
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
}

/// One row tile's cache-blocked column-band schedule: the flat
/// [`ScheduledMatrix`] of band-major merged windows plus the band
/// partition and per-window band metadata. Built only as a tile of a
/// [`super::tiled::TiledSchedule`] and walked by
/// [`crate::Gust::execute_tiled`] / [`crate::Gust::execute_batch_tiled`].
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct BandedSchedule {
    flat: ScheduledMatrix,
    bands: ColumnBands,
    /// Band metadata of `flat.windows()[w]`, one per window.
    windows: Vec<BandedWindow>,
}

impl BandedSchedule {
    /// Assembles a banded tile body from its flat schedule and band
    /// metadata. Crate-internal: produced by the scheduler and the
    /// `GUTL` reader, both of which build `flat` through
    /// [`ScheduledMatrix::from_parts`] (so its release-build index
    /// bounds hold) and guarantee (or validate) the band invariants.
    ///
    /// # Panics
    ///
    /// Panics if the band partition does not cover the flat schedule's
    /// columns, or the band metadata disagrees with the partition or
    /// with its window's slot count — the bounds the band walk relies on.
    #[must_use]
    pub(crate) fn from_parts(
        flat: ScheduledMatrix,
        bands: ColumnBands,
        windows: Vec<BandedWindow>,
    ) -> Self {
        assert_eq!(
            bands.cols(),
            flat.cols(),
            "band partition must cover all columns"
        );
        assert_eq!(
            windows.len(),
            flat.windows().len(),
            "one band layout per window"
        );
        for (w, (banded, window)) in windows.iter().zip(flat.windows()).enumerate() {
            assert_eq!(
                banded.band_slot_ptr.len(),
                bands.count() + 1,
                "window {w}: band count mismatch"
            );
            assert_eq!(
                banded.local_cols.len(),
                window.nnz(),
                "window {w}: band layout does not match its slots"
            );
        }
        Self {
            flat,
            bands,
            windows,
        }
    }

    /// The tile as a flat schedule: band-major merged windows, executable
    /// by the flat engine. Banded execution is bit-identical to flat
    /// execution of this schedule (see the module docs); with one band
    /// it *is* the schedule [`crate::schedule::Scheduler::schedule`]
    /// would have produced for the tile.
    #[must_use]
    pub fn flat(&self) -> &ScheduledMatrix {
        &self.flat
    }

    /// The column-band partition.
    #[must_use]
    pub fn bands(&self) -> &ColumnBands {
        &self.bands
    }

    /// Per-window band metadata, parallel to `flat().windows()`.
    #[must_use]
    pub fn windows(&self) -> &[BandedWindow] {
        &self.windows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A shape whose structural caps never bind (one row, every column
    /// gathered `cols` times), so the count is the budget-implied one.
    fn budget_bands(cols: usize, budget: usize, batch: usize, elem_bytes: usize) -> ColumnBands {
        ColumnBands::for_tile(1, cols, cols * cols, batch, elem_bytes, budget)
    }

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
        let bands = budget_bands(100, 1024, 8, 4);
        assert_eq!(bands.count(), 4); // ceil(100 / 32)
        for b in 0..bands.count() {
            let width = bands.range(b).len();
            assert!(width * 8 * 4 <= 1024 + 8 * 4, "band {b} width {width}");
        }
        // A budget covering everything yields one band.
        assert_eq!(budget_bands(100, 1 << 20, 8, 4).count(), 1);
    }

    #[test]
    fn zero_cols_gets_one_empty_band() {
        let bands = ColumnBands::for_tile(10, 0, 0, 8, 4, 1024);
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
        let single = budget_bands(1000, 1024, 1, 4);
        let batched = budget_bands(1000, 1024, 8, 4);
        assert_eq!(single.count(), 4); // ceil(1000 / 256)
        assert_eq!(batched.count(), 32); // ceil(1000 / 32)
    }

    #[test]
    fn for_budget_handles_degenerate_budgets() {
        // A budget smaller than one column slice degenerates to one
        // column per band, never zero-width bands — and never more bands
        // than columns.
        let bands = budget_bands(5, 1, 8, 4);
        assert_eq!(bands.count(), 5);
        for b in 0..bands.count() {
            assert_eq!(bands.range(b).len(), 1);
        }
        assert_eq!(budget_bands(0, 1, 8, 4).count(), 1);
    }

    #[test]
    fn band_plan_caps_the_band_count_at_the_row_density() {
        // 8192 rows × 4096 cols × 8 nnz/row (16 gathers per column)
        // under a budget that would demand 64 batched bands: the density
        // cap wins at 8.
        let budget = 4096 * 4 * 8 / 64;
        assert_eq!(budget_bands(4096, budget, 8, 4).count(), 64);
        assert_eq!(
            ColumnBands::for_tile(8192, 4096, 8 * 8192, 8, 4, budget).count(),
            8
        );
        // A generous budget keeps one band regardless of density.
        assert_eq!(
            ColumnBands::for_tile(8192, 4096, 8 * 8192, 8, 4, 1 << 30).count(),
            1
        );
    }

    #[test]
    fn band_plan_handles_degenerate_shapes() {
        // Empty matrix: the structural caps clamp to one band.
        assert_eq!(ColumnBands::for_tile(0, 64, 0, 1, 4, 1024).count(), 1);
        // Budget below one column slice: never more bands than columns
        // (with_count would panic otherwise).
        let tiny = ColumnBands::for_tile(2, 7, 1000, 8, 4, 1);
        assert_eq!(tiny.count(), 7);
        assert_eq!(tiny.cols(), 7);
    }

    #[test]
    fn tile_plans_cap_bands_at_the_per_column_gather_count() {
        // A hyper-sparse tile (fewer non-zeros than columns) gains
        // nothing from bands: one band, although the budget demands 32
        // and the row density allows 6.
        let budget = 1 << 20;
        assert_eq!(budget_bands(1 << 20, budget, 8, 4).count(), 32);
        let tile = ColumnBands::for_tile(32 * 1024, 1 << 20, 6 * 32 * 1024, 8, 4, budget);
        assert_eq!(tile.count(), 1);
        // The same columns re-gathered six times each keep the
        // density-capped budget count.
        let reused = ColumnBands::for_tile(1 << 20, 1 << 20, 6 << 20, 8, 4, budget);
        assert_eq!(reused.count(), 6);
        // A dense tile keeps the budget-implied count.
        let dense = ColumnBands::for_tile(1024, 512, 64 * 1024, 8, 4, 1024);
        assert_eq!(dense.count(), budget_bands(512, 1024, 8, 4).count());
        assert_eq!(dense.count(), 16);
    }

    #[test]
    fn f64_operands_halve_the_band_width() {
        // The budget divides by the element width, so an f64 band holds
        // half the columns of an f32 band under the same budget.
        let f32_bands = budget_bands(1024, 4096, 8, 4);
        let f64_bands = budget_bands(1024, 4096, 8, 8);
        assert_eq!(f32_bands.count(), 8); // ceil(1024 / 128)
        assert_eq!(f64_bands.count(), 16); // ceil(1024 / 64)

        // Until a structural cap takes over, the tile plan doubles too.
        let f32_plan = ColumnBands::for_tile(1024, 1024, 64 * 1024, 8, 4, 4096);
        let f64_plan = ColumnBands::for_tile(1024, 1024, 64 * 1024, 8, 8, 4096);
        assert_eq!(f32_plan.count(), 8);
        assert_eq!(f64_plan.count(), 16);
    }

    #[test]
    fn band_plan_single_vector_needs_no_more_bands_than_batched() {
        // The PR 4 mis-sizing pinned: for the same budget, the
        // single-vector plan must never be finer than the batched plan.
        for (rows, cols, nnz) in [(512usize, 4096usize, 32 * 512usize), (64, 100, 6400)] {
            for budget in [256usize, 4096, 1 << 20] {
                let single = ColumnBands::for_tile(rows, cols, nnz, 1, 4, budget);
                let batched = ColumnBands::for_tile(rows, cols, nnz, 8, 4, budget);
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
