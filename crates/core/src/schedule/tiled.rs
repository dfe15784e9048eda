//! 2D row×column tiled schedules: the cache-blocked schedule family.
//!
//! Column bands ([`super::banded`]) keep the `x[col]` gathers resident;
//! row tiles keep the `y[row]` side resident too. On tall matrices a
//! band sweep over the whole matrix carries one accumulator bank per
//! window, and with millions of rows the bank array itself is
//! re-streamed from memory once per band. The GPU SpMV literature (Yang
//! et al.) reaches the same conclusion for this regime — when both
//! vectors spill, blocking must be two-dimensional.
//!
//! A [`TiledSchedule`] partitions the rows into contiguous **row tiles**
//! sized by [`crate::GustConfig::with_row_budget`] (`GUST_ROW_BUDGET`
//! override) and schedules each tile's sub-matrix
//! ([`gust_sparse::CsrMatrix::row_slice`]) as an independent
//! [`BandedSchedule`] body: windowed, load-balanced and column-banded on
//! its own, with a per-tile density-aware band count
//! ([`super::banded::ColumnBands::for_tile`]).
//! The execution engine ([`crate::Gust::execute_tiled`] /
//! [`crate::Gust::execute_batch_tiled`]) walks tiles outermost, so the
//! accumulator carry of a band sweep is confined to one tile's output
//! slice — both vectors stay cache-resident at once. One tile is the
//! purely column-banded schedule, and one tile of one band is the flat
//! [`crate::schedule::Scheduler::schedule`] output: there is no separate
//! banded plan family.
//!
//! # Bit-identity
//!
//! A tile is scheduled exactly as a stand-alone matrix, and its band
//! sweep is bit-identical to the flat engine on the flat schedule the
//! tile contains ([`BandedSchedule::flat`]) under every backend — a
//! single-band tile is walked by the flat walk itself. The tiled output
//! is the concatenation of the tiles' outputs (each original row lives
//! in exactly one tile), so the whole tiled run is bit-identical to
//! running the flat engine per tile and stitching the slices.
//! `tests/tiled_equivalence.rs` pins this per backend.

use super::banded::BandedSchedule;
use std::ops::Range;

/// A fully scheduled matrix with 2D row×column tiles, produced by
/// [`crate::schedule::Scheduler::schedule_tiled`] and executed by
/// [`crate::Gust::execute_tiled`] / [`crate::Gust::execute_batch_tiled`].
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TiledSchedule {
    length: usize,
    rows: usize,
    cols: usize,
    nnz: usize,
    /// Row-tile boundaries: tile `t` covers original rows
    /// `row_starts[t]..row_starts[t + 1]` (length `tiles + 1`).
    row_starts: Vec<u32>,
    /// Per-tile banded schedules, in row order. A tile's `row_perm` is
    /// tile-local: it permutes within the tile's row range.
    tiles: Vec<BandedSchedule>,
}

impl TiledSchedule {
    /// Assembles a tiled schedule from its parts. Crate-internal:
    /// produced by the scheduler and the binary reader, both of which
    /// guarantee (or validate) the tile invariants.
    ///
    /// # Panics
    ///
    /// Panics if the row partition is invalid ([`row_starts_are_valid`]), a
    /// tile's shape disagrees with its row range or the matrix columns,
    /// or a tile targets a different accelerator length.
    #[must_use]
    pub(crate) fn from_parts(
        length: usize,
        rows: usize,
        cols: usize,
        row_starts: Vec<u32>,
        tiles: Vec<BandedSchedule>,
    ) -> Self {
        assert_eq!(
            tiles.len() + 1,
            row_starts.len(),
            "tile count inconsistent with row boundaries"
        );
        assert!(
            row_starts_are_valid(&row_starts, rows),
            "row-tile boundaries must ascend from 0 to {rows}"
        );
        let mut nnz = 0usize;
        for (t, tile) in tiles.iter().enumerate() {
            let tile_rows = (row_starts[t + 1] - row_starts[t]) as usize;
            let flat = tile.flat();
            assert_eq!(flat.rows(), tile_rows, "tile {t}: row count mismatch");
            assert_eq!(flat.cols(), cols, "tile {t}: column count mismatch");
            assert_eq!(flat.length(), length, "tile {t}: length mismatch");
            nnz += flat.nnz();
        }
        Self {
            length,
            rows,
            cols,
            nnz,
            row_starts,
            tiles,
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

    /// Number of row tiles.
    #[must_use]
    pub fn tile_count(&self) -> usize {
        self.tiles.len()
    }

    /// The row-tile boundaries (length `tile_count() + 1`).
    #[must_use]
    pub fn row_starts(&self) -> &[u32] {
        &self.row_starts
    }

    /// The original-row range of tile `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= self.tile_count()`.
    #[must_use]
    pub fn tile_range(&self, t: usize) -> Range<usize> {
        self.row_starts[t] as usize..self.row_starts[t + 1] as usize
    }

    /// Per-tile banded schedules, in row order. Each tile is a complete
    /// stand-alone [`BandedSchedule`] over the tile's rows and **all**
    /// columns; with a single tile of a single band,
    /// `tiles()[0].flat()` *is* the flat schedule
    /// [`crate::schedule::Scheduler::schedule`] produces.
    #[must_use]
    pub fn tiles(&self) -> &[BandedSchedule] {
        &self.tiles
    }

    /// Total colors across tiles, windows and bands — the tiled
    /// streaming cycle count. At least the flat schedule's total: bands
    /// and tiles trade modeled cycles for host cache locality
    /// (each tile's ragged final window wastes lanes the untiled
    /// windowing would have filled).
    #[must_use]
    pub fn total_colors(&self) -> u64 {
        self.tiles.iter().map(|t| t.flat().total_colors()).sum()
    }

    /// Total stalled lane-cycles (naive scheduling only).
    #[must_use]
    pub fn total_stalls(&self) -> u64 {
        self.tiles.iter().map(|t| t.flat().total_stalls()).sum()
    }
}

/// Whether `row_starts` is a valid row-tile partition of `rows` rows:
/// boundaries strictly ascend from 0 to `rows`, so every tile is
/// non-empty — except for a 0-row matrix, whose partition is the single
/// empty tile `[0, 0]`. The one rule the constructor, the `GUTL` reader
/// and the auditor all apply.
#[must_use]
pub(crate) fn row_starts_are_valid(row_starts: &[u32], rows: usize) -> bool {
    if rows == 0 {
        return row_starts == [0, 0];
    }
    row_starts.len() >= 2
        && row_starts[0] == 0
        && row_starts.last().map(|&e| e as usize) == Some(rows)
        && row_starts.windows(2).all(|w| w[0] < w[1])
}

/// Near-equal row-tile boundaries: tile `t` covers rows
/// `t·rows/count .. (t+1)·rows/count` — non-empty whenever
/// `count <= max(rows, 1)` (mirrors [`super::banded::ColumnBands`]).
///
/// # Panics
///
/// Panics if `count` is zero or exceeds `max(rows, 1)`.
#[must_use]
pub(crate) fn row_tile_starts(rows: usize, count: usize) -> Vec<u32> {
    assert!(count > 0, "need at least one row tile");
    assert!(
        count <= rows.max(1),
        "cannot split {rows} rows into {count} non-empty tiles"
    );
    (0..=count).map(|t| (t * rows / count) as u32).collect()
}

/// Row-tile boundaries for a `rows`-row matrix under `row_budget_bytes`
/// at effective batch width `batch` with `elem_bytes`-wide elements (4
/// for f32 walks, 8 for f64), on a length-`length` accelerator: every
/// tile spans exactly `tile_rows` rows — the largest multiple of
/// `length` whose output slice (`tile_rows × batch × elem_bytes` bytes)
/// fits the budget, never less than one window — except the final tile,
/// which takes the remainder. Chunked rather than near-equal splitting
/// keeps every non-final tile window-aligned, so only each tile's
/// *final* window can be ragged.
#[must_use]
pub(crate) fn row_tile_starts_for_budget(
    rows: usize,
    length: usize,
    batch: usize,
    elem_bytes: usize,
    row_budget_bytes: usize,
) -> Vec<u32> {
    let budget_rows = (row_budget_bytes / (elem_bytes.max(1) * batch.max(1))).max(1);
    let tile_rows = (budget_rows / length * length).max(length);
    let count = rows.div_ceil(tile_rows).max(1);
    (0..=count)
        .map(|t| (t * tile_rows).min(rows) as u32)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_tile_starts_cover_all_rows_in_order() {
        for (rows, count) in [(9usize, 2usize), (100, 7), (5, 5), (1, 1), (64, 1)] {
            let starts = row_tile_starts(rows, count);
            assert_eq!(starts.len(), count + 1);
            assert_eq!(starts[0], 0);
            assert_eq!(*starts.last().unwrap() as usize, rows);
            for w in starts.windows(2) {
                assert!(w[0] < w[1], "{rows} rows / {count}: empty tile");
            }
        }
        // Zero rows degenerate to one empty tile.
        assert_eq!(row_tile_starts(0, 1), vec![0, 0]);
    }

    #[test]
    fn row_starts_are_valid_only_when_strictly_ascending() {
        assert!(row_starts_are_valid(&[0, 3, 5], 5));
        assert!(row_starts_are_valid(&[0, 0], 0));
        // Empty interior or trailing tiles, wrong ends, no tiles at all.
        for (starts, rows) in [
            (&[0u32, 0, 5][..], 5usize),
            (&[0, 5, 5], 5),
            (&[0, 4], 5),
            (&[1, 5], 5),
            (&[0], 0),
            (&[0, 0, 0], 0),
        ] {
            assert!(!row_starts_are_valid(starts, rows), "{starts:?} / {rows}");
        }
    }

    #[test]
    #[should_panic(expected = "non-empty tiles")]
    fn more_tiles_than_rows_panics() {
        let _ = row_tile_starts(3, 4);
    }

    #[test]
    fn budget_tile_starts_align_to_the_accelerator_length() {
        // 64 KiB at batch 1 → 16 384 rows per tile, rounded to l = 256.
        let starts = row_tile_starts_for_budget(1 << 20, 256, 1, 4, 64 * 1024);
        assert_eq!(starts.len(), 64 + 1);
        // Batched walks divide the budget by the block width.
        assert_eq!(
            row_tile_starts_for_budget(1 << 20, 256, 8, 4, 64 * 1024).len(),
            512 + 1
        );
        // Every non-final boundary is window-aligned, so only each
        // tile's final window can be ragged.
        let starts = row_tile_starts_for_budget(100, 8, 8, 4, 1);
        assert_eq!(starts.len(), 13 + 1);
        for &s in &starts[..starts.len() - 1] {
            assert_eq!(s % 8, 0, "boundary {s} not window-aligned");
        }
        assert_eq!(*starts.last().unwrap(), 100);
        assert!(starts.windows(2).all(|w| w[0] < w[1]), "no empty tiles");
        // A generous budget means one tile; a tile is never smaller than
        // one accelerator window, so tiny matrices stay a single tile
        // even under a 1-byte budget.
        assert_eq!(row_tile_starts_for_budget(100, 8, 8, 4, 1 << 30).len(), 2);
        assert_eq!(row_tile_starts_for_budget(3, 8, 8, 4, 1), vec![0, 3]);
        assert_eq!(row_tile_starts_for_budget(0, 8, 1, 4, 1), vec![0, 0]);
    }

    #[test]
    fn f64_tiles_halve_under_the_same_budget() {
        // The element width divides the budget: f64 output slices are
        // twice the bytes per row, so the tile count doubles.
        let f32_tiles = row_tile_starts_for_budget(1 << 20, 256, 8, 4, 64 * 1024).len() - 1;
        let f64_tiles = row_tile_starts_for_budget(1 << 20, 256, 8, 8, 64 * 1024).len() - 1;
        assert_eq!(f64_tiles, 2 * f32_tiles);
    }
}
