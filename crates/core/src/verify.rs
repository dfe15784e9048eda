//! Schedule safety auditor: statically proves the contract the unsafe
//! kernels rely on.
//!
//! GUST's speed story rests on one correctness property: the edge-coloring
//! makes every color a *write-disjoint* set of slots. That property — plus
//! plain index bounds — is exactly the precondition the `unsafe` AVX2 /
//! AVX-512 gather/scatter loops in [`crate::kernels`] and
//! `gust_sparse::kernels`, and the [`crate::parallel::Pool`] fan-out,
//! assume. In-memory schedules establish it by construction (the
//! [`Scheduler`](crate::schedule::Scheduler) colors conflict-free and the
//! constructors `debug_assert` it), but `debug_assert`s vanish in release
//! builds, and a deserialized `GUST`/`GUTL` stream can carry a valid
//! checksum around forged contents. This module closes that gap: it audits
//! the **complete safety contract** for any flat or tiled schedule
//! and returns a typed [`AuditReport`] with slot-precise violation
//! locations instead of panicking.
//!
//! # The audited contract
//!
//! For every window of a schedule (and, for tiled schedules, every band
//! and tile on top):
//!
//! 1. **Structure** — the SoA arrays agree in length and `color_ptr` is a
//!    monotone CSR-style partition covering every slot exactly once.
//! 2. **Index bounds** — every slot column is `< matrix.cols` (the `x`
//!    gather bound), every lane is `< l` and every destination adder is
//!    `< window_rows` (the accumulator scatter bound, tighter than `l` on
//!    the ragged final window).
//! 3. **Write-disjointness** — within one color no two slots share a lane
//!    (one multiplier port per cycle) and no two slots target the same
//!    adder (the race-freedom proof for the parallel scatter).
//! 4. **Staging consistency** — `gather_cols` is strictly ascending, every
//!    entry is in bounds, and `gather_cols[local_cols[i]] == cols[i]`, so
//!    the staged (`x`-compacting) kernel path reads the same operands as
//!    the direct path.
//! 5. **Row permutation** — `row_perm` is a true permutation of
//!    `0..rows`: in bounds *and* duplicate-free, since a duplicate would
//!    scatter two windows' outputs into one row concurrently.
//! 6. **Band/tile containment** — band slot pointers partition each
//!    window's slots and every slot's column falls inside its band's
//!    `[start, end)`; tile row boundaries strictly ascend from 0 to
//!    `rows` (a 0-row matrix has the single empty tile `[0, 0]`).
//! 7. **Coverage** (optional, against a source [`CsrMatrix`]) — the slot
//!    stream reproduces the matrix triplet-for-triplet.
//!
//! # Admission flow
//!
//! Auditing yields a [`VerifiedSchedule`] witness: the only way to obtain
//! one is [`VerifiedSchedule::verify`] (a full audit) or a crate-internal
//! witness for schedules built in RAM by the scheduler, whose constructors
//! assert the same contract. The binary readers in
//! [`crate::schedule::serialize`] audit **unconditionally** — release
//! builds included — and the serving registry
//! ([`crate::serve::ScheduleRegistry`]) only admits disk bytes through
//! them, so the unsafe preconditions are established exactly once per
//! admission and never re-checked on the execute path.
//!
//! The `gust-verify` CLI bin runs the same audit over cache files offline
//! and exits nonzero on violation.

use std::fmt;
use std::ops::Deref;

use crate::schedule::banded::{BandedSchedule, BandedWindow};
use crate::schedule::scheduled::{ScheduledMatrix, WindowSchedule};
use crate::schedule::tiled::{self, TiledSchedule};
use gust_sparse::CsrMatrix;

/// Reports are truncated at this many violations: a forged stream can
/// violate the contract at every slot, and one violation already condemns
/// the schedule.
pub const MAX_VIOLATIONS: usize = 64;

/// One violation of the schedule safety contract, locating the offending
/// slot as precisely as the violated invariant allows.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Violation {
    /// Schedule-level shape disagreement (window count, nnz accounting,
    /// engine-length mismatch).
    Shape {
        /// What disagrees.
        what: String,
    },
    /// A window's SoA arrays or `color_ptr` are malformed.
    Structure {
        /// Window index.
        window: usize,
        /// What is malformed.
        what: String,
    },
    /// A slot's multiplier lane is outside `0..l`.
    LaneOutOfBounds {
        /// Window index.
        window: usize,
        /// Color (cycle) index within the window.
        color: u32,
        /// Absolute slot index within the window's SoA arrays.
        slot: usize,
        /// The offending lane.
        lane: u32,
        /// The engine length `l`.
        length: usize,
    },
    /// A color's lanes are not strictly ascending — either unsorted or
    /// two slots share a multiplier port in one cycle.
    LaneOrder {
        /// Window index.
        window: usize,
        /// Color (cycle) index within the window.
        color: u32,
        /// Absolute slot index within the window's SoA arrays.
        slot: usize,
        /// The offending lane.
        lane: u32,
    },
    /// A slot's destination adder is outside the rows this window covers.
    AdderOutOfBounds {
        /// Window index.
        window: usize,
        /// Color (cycle) index within the window.
        color: u32,
        /// Absolute slot index within the window's SoA arrays.
        slot: usize,
        /// The offending adder (`row_mod`).
        row_mod: u32,
        /// Rows covered by this window (`min(l, rows − w·l)`).
        limit: usize,
    },
    /// Two slots of one color target the same adder — the write collision
    /// the edge-coloring exists to prevent.
    WriteCollision {
        /// Window index.
        window: usize,
        /// Color (cycle) index within the window.
        color: u32,
        /// The adder both slots write.
        row_mod: u32,
        /// First colliding slot (absolute index).
        first_slot: usize,
        /// Second colliding slot (absolute index).
        second_slot: usize,
    },
    /// A slot's column is outside the matrix — an out-of-bounds `x` read
    /// in the gather kernels.
    ColumnOutOfBounds {
        /// Window index.
        window: usize,
        /// Color (cycle) index within the window.
        color: u32,
        /// Absolute slot index within the window's SoA arrays.
        slot: usize,
        /// The offending column.
        col: u32,
        /// Matrix column count.
        cols: usize,
    },
    /// The window's staging index (`gather_cols` / `local_cols`) is
    /// inconsistent with its slot columns.
    StagingIndex {
        /// Window index.
        window: usize,
        /// What is inconsistent.
        what: String,
    },
    /// The row permutation is not a permutation of `0..rows`.
    RowPerm {
        /// What is wrong.
        what: String,
    },
    /// The column-band boundaries do not partition `0..cols`.
    BandPartition {
        /// What is wrong.
        what: String,
    },
    /// A window's band slot pointers do not partition its slots.
    BandPointer {
        /// Window index.
        window: usize,
        /// What is wrong.
        what: String,
    },
    /// A slot's column falls outside the band its pointer range claims.
    BandColumn {
        /// Window index.
        window: usize,
        /// Band index.
        band: usize,
        /// Absolute slot index within the window's SoA arrays.
        slot: usize,
        /// The offending column.
        col: u32,
        /// Band start (inclusive).
        start: u32,
        /// Band end (exclusive).
        end: u32,
    },
    /// The row-tile boundaries do not partition `0..rows` or a tile's
    /// shape disagrees with its boundaries.
    TileStructure {
        /// What is wrong.
        what: String,
    },
    /// A violation inside one tile of a tiled schedule.
    Tile {
        /// Tile index.
        tile: usize,
        /// The violation within that tile (window indices tile-local).
        inner: Box<Violation>,
    },
    /// The slot stream does not reproduce the source matrix.
    Coverage {
        /// What diverges.
        what: String,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Shape { what } => write!(f, "schedule shape: {what}"),
            Violation::Structure { window, what } => write!(f, "window {window}: {what}"),
            Violation::LaneOutOfBounds {
                window,
                color,
                slot,
                lane,
                length,
            } => write!(
                f,
                "window {window} color {color} slot {slot}: lane {lane} out of range for length {length}"
            ),
            Violation::LaneOrder {
                window,
                color,
                slot,
                lane,
            } => write!(
                f,
                "window {window} color {color} slot {slot}: lane {lane} breaks the strictly-ascending lane order (duplicate or unsorted multiplier port)"
            ),
            Violation::AdderOutOfBounds {
                window,
                color,
                slot,
                row_mod,
                limit,
            } => write!(
                f,
                "window {window} color {color} slot {slot}: adder {row_mod} out of range for {limit} window rows"
            ),
            Violation::WriteCollision {
                window,
                color,
                row_mod,
                first_slot,
                second_slot,
            } => write!(
                f,
                "window {window} color {color}: slots {first_slot} and {second_slot} both write adder {row_mod} (intra-color write collision)"
            ),
            Violation::ColumnOutOfBounds {
                window,
                color,
                slot,
                col,
                cols,
            } => write!(
                f,
                "window {window} color {color} slot {slot}: column {col} out of range for {cols} columns"
            ),
            Violation::StagingIndex { window, what } => {
                write!(f, "window {window}: staging index {what}")
            }
            Violation::RowPerm { what } => write!(f, "row permutation {what}"),
            Violation::BandPartition { what } => write!(f, "band partition {what}"),
            Violation::BandPointer { window, what } => {
                write!(f, "window {window}: band slot pointers {what}")
            }
            Violation::BandColumn {
                window,
                band,
                slot,
                col,
                start,
                end,
            } => write!(
                f,
                "window {window} band {band} slot {slot}: column {col} outside [{start}, {end})"
            ),
            Violation::TileStructure { what } => write!(f, "row tiling {what}"),
            Violation::Tile { tile, inner } => write!(f, "tile {tile}: {inner}"),
            Violation::Coverage { what } => write!(f, "coverage: {what}"),
        }
    }
}

/// The outcome of auditing one schedule: empty means the complete safety
/// contract holds.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AuditReport {
    violations: Vec<Violation>,
}

impl AuditReport {
    pub(crate) fn from_violations(violations: Vec<Violation>) -> Self {
        Self { violations }
    }

    /// `true` when no violation was found — the schedule satisfies every
    /// precondition the unsafe kernels assume.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The violations found, in discovery order, truncated at
    /// [`MAX_VIOLATIONS`].
    #[must_use]
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Wraps every violation with the tile it was found in (window
    /// indices inside a tile are tile-local).
    pub(crate) fn in_tile(self, tile: usize) -> Self {
        Self {
            violations: self
                .violations
                .into_iter()
                .map(|v| Violation::Tile {
                    tile,
                    inner: Box::new(v),
                })
                .collect(),
        }
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.violations.is_empty() {
            return write!(f, "schedule audit clean");
        }
        write!(
            f,
            "schedule audit found {} violation(s)",
            self.violations.len()
        )?;
        if self.violations.len() >= MAX_VIOLATIONS {
            write!(f, " (truncated)")?;
        }
        for v in self.violations.iter().take(4) {
            write!(f, "; {v}")?;
        }
        if self.violations.len() > 4 {
            write!(f, "; …")?;
        }
        Ok(())
    }
}

impl std::error::Error for AuditReport {}

/// Audits a flat schedule's complete safety contract (items 1–5 of the
/// module contract). O(nnz).
#[must_use]
pub fn audit_schedule(schedule: &ScheduledMatrix) -> AuditReport {
    let mut out = Vec::new();
    audit_shape(
        schedule.windows().len(),
        schedule.rows(),
        schedule.length(),
        schedule.nnz(),
        schedule.windows().iter().map(WindowSchedule::nnz).sum(),
        &mut out,
    );
    let mut scratch = Scratch::new(schedule.length());
    for (w, window) in schedule.windows().iter().enumerate() {
        let window_rows =
            (schedule.rows() - (w * schedule.length()).min(schedule.rows())).min(schedule.length());
        audit_window_soa(
            w,
            window.colors(),
            window.color_ptr(),
            window.lanes(),
            window.row_mods(),
            window.cols(),
            schedule.length(),
            window_rows,
            schedule.cols(),
            &mut scratch,
            &mut out,
        );
        audit_staging_index(w, window, schedule.cols(), &mut out);
    }
    audit_row_perm(schedule.row_perm(), schedule.rows(), &mut out);
    AuditReport::from_violations(out)
}

/// Audits one tile's column-banded body: [`audit_schedule`] on the
/// tile's flat schedule, plus band-partition and per-window band
/// slot-pointer containment.
fn audit_banded(tile: &BandedSchedule) -> AuditReport {
    let flat = tile.flat();
    let mut report = audit_schedule(flat);
    let out = &mut report.violations;
    let starts = tile.bands().starts();
    audit_band_partition(starts, flat.cols(), out);
    for (w, (window, banded)) in flat.windows().iter().zip(tile.windows()).enumerate() {
        // Rebuild the window's band layout from its offsets: the rebuild
        // audits the offsets and every slot's band containment, and its
        // band-local columns are the ones the banded gather must read.
        match BandedWindow::from_merged(w, window, banded.band_slot_ptr().to_vec(), starts) {
            Err(rebuilt) => {
                for v in rebuilt.violations {
                    if !push(out, v) {
                        break;
                    }
                }
            }
            Ok(rebuilt) if rebuilt.local_cols() != banded.local_cols() => {
                push(
                    out,
                    Violation::BandPointer {
                        window: w,
                        what: "disagree with the band-local columns".into(),
                    },
                );
            }
            Ok(_) => {}
        }
    }
    report
}

/// Audits a row-tiled schedule: the tile partition plus, for every
/// tile's banded body, everything [`audit_schedule`] proves and the band
/// containment of contract item 6 (violations wrapped in
/// [`Violation::Tile`]).
#[must_use]
pub fn audit_tiled(schedule: &TiledSchedule) -> AuditReport {
    let mut out = Vec::new();
    let starts = schedule.row_starts();
    if starts.len() != schedule.tile_count() + 1 {
        push(
            &mut out,
            Violation::TileStructure {
                what: format!(
                    "have {} boundaries for {} tiles",
                    starts.len(),
                    schedule.tile_count()
                ),
            },
        );
    } else if !tiled::row_starts_are_valid(starts, schedule.rows()) {
        push(
            &mut out,
            Violation::TileStructure {
                what: format!("boundaries must ascend from 0 to {}", schedule.rows()),
            },
        );
    }
    let mut total_nnz = 0usize;
    for (t, tile) in schedule.tiles().iter().enumerate() {
        let flat = tile.flat();
        total_nnz += flat.nnz();
        if starts.len() == schedule.tile_count() + 1 {
            let tile_rows = starts[t + 1].saturating_sub(starts[t]) as usize;
            if flat.rows() != tile_rows
                || flat.cols() != schedule.cols()
                || flat.length() != schedule.length()
            {
                push(
                    &mut out,
                    Violation::TileStructure {
                        what: format!(
                            "tile {t} is {}x{} (length {}) but its boundaries say {}x{} (length {})",
                            flat.rows(),
                            flat.cols(),
                            flat.length(),
                            tile_rows,
                            schedule.cols(),
                            schedule.length()
                        ),
                    },
                );
            }
        }
        for v in audit_banded(tile).violations {
            if !push(
                &mut out,
                Violation::Tile {
                    tile: t,
                    inner: Box::new(v),
                },
            ) {
                break;
            }
        }
    }
    if total_nnz != schedule.nnz() {
        push(
            &mut out,
            Violation::Shape {
                what: format!(
                    "tiles hold {total_nnz} slots but the schedule claims {} non-zeros",
                    schedule.nnz()
                ),
            },
        );
    }
    AuditReport::from_violations(out)
}

/// [`audit_schedule`] plus exact CSR coverage: the slot stream must
/// reproduce `matrix` triplet-for-triplet. O(nnz log nnz).
#[must_use]
pub fn audit_schedule_against(schedule: &ScheduledMatrix, matrix: &CsrMatrix) -> AuditReport {
    let mut report = audit_schedule(schedule);
    if !report.is_clean() {
        // Coverage reconstruction indexes through row_perm; only meaningful
        // once the structural contract holds.
        return report;
    }
    let mut rebuilt: Vec<(u32, u32, u32)> = Vec::with_capacity(schedule.nnz());
    collect_triplets(schedule, 0, &mut rebuilt);
    audit_coverage(
        &mut rebuilt,
        schedule.rows(),
        schedule.cols(),
        matrix,
        &mut report.violations,
    );
    report
}

/// [`audit_tiled`] plus exact CSR coverage (tile row permutations are
/// tile-local; triplets are lifted by each tile's row offset).
#[must_use]
pub fn audit_tiled_against(schedule: &TiledSchedule, matrix: &CsrMatrix) -> AuditReport {
    let mut report = audit_tiled(schedule);
    if !report.is_clean() {
        return report;
    }
    let mut rebuilt: Vec<(u32, u32, u32)> = Vec::with_capacity(schedule.nnz());
    for (tile, &row0) in schedule.tiles().iter().zip(schedule.row_starts()) {
        collect_triplets(tile.flat(), row0, &mut rebuilt);
    }
    audit_coverage(
        &mut rebuilt,
        schedule.rows(),
        schedule.cols(),
        matrix,
        &mut report.violations,
    );
    report
}

/// A schedule container the auditor knows how to prove safe.
pub trait Auditable {
    /// Runs the full safety audit (without CSR coverage, which needs the
    /// source matrix).
    fn audit(&self) -> AuditReport;
}

impl Auditable for ScheduledMatrix {
    fn audit(&self) -> AuditReport {
        audit_schedule(self)
    }
}

impl Auditable for TiledSchedule {
    fn audit(&self) -> AuditReport {
        audit_tiled(self)
    }
}

/// Witness that a schedule passed the full safety audit.
///
/// The only public constructor is [`VerifiedSchedule::verify`], which runs
/// the audit; crate-internal paths mint witnesses for schedules whose
/// construction already asserts the contract (the scheduler) or whose
/// deserialization audits unconditionally (the binary readers). Holding a
/// `VerifiedSchedule` therefore *is* the proof the unsafe kernel
/// preconditions hold — the execute paths never re-check.
///
/// Derefs to the underlying schedule, so `&VerifiedSchedule<S>` coerces
/// wherever `&S` is expected.
#[derive(Debug, Clone)]
pub struct VerifiedSchedule<S> {
    inner: S,
}

impl<S: Auditable> VerifiedSchedule<S> {
    /// Audits `schedule` and, if clean, wraps it as a witness.
    ///
    /// # Errors
    ///
    /// Returns the [`AuditReport`] when any contract violation is found.
    pub fn verify(schedule: S) -> Result<Self, Box<AuditReport>> {
        let report = schedule.audit();
        if report.is_clean() {
            Ok(Self { inner: schedule })
        } else {
            Err(Box::new(report))
        }
    }
}

impl<S> VerifiedSchedule<S> {
    /// Wraps a schedule whose contract is already established: built in
    /// RAM by the scheduler (constructors assert it) or returned by a
    /// binary reader (which audits unconditionally). Debug builds
    /// double-check nothing here — callers carry the proof obligation.
    pub(crate) fn witness(schedule: S) -> Self {
        Self { inner: schedule }
    }

    /// The audited schedule.
    #[must_use]
    pub fn get(&self) -> &S {
        &self.inner
    }

    /// Unwraps the witness, surrendering the proof.
    #[must_use]
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S> Deref for VerifiedSchedule<S> {
    type Target = S;

    fn deref(&self) -> &S {
        &self.inner
    }
}

// ---------------------------------------------------------------------------
// Raw-parts auditors. The binary readers call these on the freshly parsed
// SoA arrays *before* any constructor runs, so forged streams are reported
// as violations instead of tripping (debug-only) constructor asserts.
// ---------------------------------------------------------------------------

/// Appends `v` unless the report is already full. Returns whether more
/// violations may be pushed.
fn push(out: &mut Vec<Violation>, v: Violation) -> bool {
    if out.len() < MAX_VIOLATIONS {
        out.push(v);
    }
    out.len() < MAX_VIOLATIONS
}

/// Epoch-marked scratch for the per-color collision scans: O(l) space,
/// O(nnz) total time, no clearing between colors.
pub(crate) struct Scratch {
    epoch: Vec<u64>,
    slot: Vec<u32>,
    current: u64,
}

impl Scratch {
    pub(crate) fn new(length: usize) -> Self {
        Self {
            epoch: vec![0; length],
            slot: vec![0; length],
            current: 0,
        }
    }
}

/// Audits one window's raw SoA arrays: structure, bounds and
/// write-disjointness (contract items 1–3).
///
/// `window_rows` is the row count this window actually covers
/// (`min(l, rows − w·l)`), the true adder scatter bound on the ragged
/// final window.
#[allow(clippy::too_many_arguments)]
pub(crate) fn audit_window_soa(
    window: usize,
    colors: u32,
    color_ptr: &[u32],
    lanes: &[u32],
    row_mods: &[u32],
    cols: &[u32],
    length: usize,
    window_rows: usize,
    matrix_cols: usize,
    scratch: &mut Scratch,
    out: &mut Vec<Violation>,
) {
    let nnz = lanes.len();
    if row_mods.len() != nnz || cols.len() != nnz {
        push(
            out,
            Violation::Structure {
                window,
                what: format!(
                    "SoA arrays disagree: {nnz} lanes, {} adders, {} columns",
                    row_mods.len(),
                    cols.len()
                ),
            },
        );
        return;
    }
    if color_ptr.len() != colors as usize + 1
        || color_ptr.first() != Some(&0)
        || color_ptr.last().map(|&e| e as usize) != Some(nnz)
        || color_ptr.windows(2).any(|w| w[0] > w[1])
    {
        push(
            out,
            Violation::Structure {
                window,
                what: format!("color pointers must partition {nnz} slots into {colors} colors"),
            },
        );
        return;
    }
    debug_assert!(scratch.epoch.len() >= length);
    for c in 0..colors {
        scratch.current += 1;
        let bucket = color_ptr[c as usize] as usize..color_ptr[c as usize + 1] as usize;
        let mut prev_lane: Option<u32> = None;
        for i in bucket {
            let lane = lanes[i];
            if (lane as usize) >= length {
                if !push(
                    out,
                    Violation::LaneOutOfBounds {
                        window,
                        color: c,
                        slot: i,
                        lane,
                        length,
                    },
                ) {
                    return;
                }
            } else if prev_lane.is_some_and(|p| lane <= p)
                && !push(
                    out,
                    Violation::LaneOrder {
                        window,
                        color: c,
                        slot: i,
                        lane,
                    },
                )
            {
                return;
            }
            prev_lane = Some(lane);

            let row_mod = row_mods[i];
            if (row_mod as usize) >= window_rows {
                if !push(
                    out,
                    Violation::AdderOutOfBounds {
                        window,
                        color: c,
                        slot: i,
                        row_mod,
                        limit: window_rows,
                    },
                ) {
                    return;
                }
            } else if scratch.epoch[row_mod as usize] == scratch.current {
                if !push(
                    out,
                    Violation::WriteCollision {
                        window,
                        color: c,
                        row_mod,
                        first_slot: scratch.slot[row_mod as usize] as usize,
                        second_slot: i,
                    },
                ) {
                    return;
                }
            } else {
                scratch.epoch[row_mod as usize] = scratch.current;
                scratch.slot[row_mod as usize] = i as u32;
            }

            let col = cols[i];
            if (col as usize) >= matrix_cols
                && !push(
                    out,
                    Violation::ColumnOutOfBounds {
                        window,
                        color: c,
                        slot: i,
                        col,
                        cols: matrix_cols,
                    },
                )
            {
                return;
            }
        }
    }
}

/// Audits a window's staging index against its slot columns (contract
/// item 4). The staged kernel gathers the *entire* `gather_cols` list, so
/// every entry must be in bounds even if no slot references it.
fn audit_staging_index(
    window: usize,
    win: &WindowSchedule,
    matrix_cols: usize,
    out: &mut Vec<Violation>,
) {
    let gather = win.gather_cols();
    if gather.windows(2).any(|w| w[0] >= w[1]) {
        push(
            out,
            Violation::StagingIndex {
                window,
                what: "gather list is not strictly ascending".into(),
            },
        );
        return;
    }
    if gather.last().is_some_and(|&g| (g as usize) >= matrix_cols) {
        push(
            out,
            Violation::StagingIndex {
                window,
                what: format!(
                    "gather column {} out of range for {matrix_cols} columns",
                    gather.last().copied().unwrap_or(0)
                ),
            },
        );
        return;
    }
    let locals = win.local_cols();
    if locals.len() != win.nnz() {
        push(
            out,
            Violation::StagingIndex {
                window,
                what: format!("has {} local columns for {} slots", locals.len(), win.nnz()),
            },
        );
        return;
    }
    for (i, (&local, &col)) in locals.iter().zip(win.cols()).enumerate() {
        let ok = gather.get(local as usize).is_some_and(|&g| g == col);
        if !ok
            && !push(
                out,
                Violation::StagingIndex {
                    window,
                    what: format!(
                        "slot {i}: local column {local} does not map to slot column {col}"
                    ),
                },
            )
        {
            return;
        }
    }
}

/// Audits the row permutation: a true permutation of `0..rows` (contract
/// item 5). A duplicate would scatter two scheduled positions into one
/// output row concurrently.
pub(crate) fn audit_row_perm(row_perm: &[u32], rows: usize, out: &mut Vec<Violation>) {
    if row_perm.len() != rows {
        push(
            out,
            Violation::RowPerm {
                what: format!("has {} entries for {rows} rows", row_perm.len()),
            },
        );
        return;
    }
    let mut seen = vec![false; rows];
    for (i, &orig) in row_perm.iter().enumerate() {
        if (orig as usize) >= rows {
            if !push(
                out,
                Violation::RowPerm {
                    what: format!("entry {i}: row {orig} out of range for {rows} rows"),
                },
            ) {
                return;
            }
        } else if seen[orig as usize] {
            if !push(
                out,
                Violation::RowPerm {
                    what: format!("entry {i}: row {orig} appears twice"),
                },
            ) {
                return;
            }
        } else {
            seen[orig as usize] = true;
        }
    }
}

/// Audits the column-band boundaries: non-descending from 0 to `cols`
/// (empty bands are legal).
pub(crate) fn audit_band_partition(starts: &[u32], cols: usize, out: &mut Vec<Violation>) {
    if starts.len() < 2
        || starts.first() != Some(&0)
        || starts.last().map(|&e| e as usize) != Some(cols)
        || starts.windows(2).any(|w| w[0] > w[1])
    {
        push(
            out,
            Violation::BandPartition {
                what: format!("boundaries must ascend from 0 to {cols}"),
            },
        );
    }
}

/// Audits one window's band slot pointers and per-band column containment
/// (contract item 6) against the raw slot columns.
pub(crate) fn audit_banded_window(
    window: usize,
    band_slot_ptr: &[u32],
    band_starts: &[u32],
    cols_arr: &[u32],
    out: &mut Vec<Violation>,
) {
    let bands = band_starts.len().saturating_sub(1);
    if band_slot_ptr.len() != bands + 1 {
        push(
            out,
            Violation::BandPointer {
                window,
                what: format!(
                    "length {} inconsistent with {bands} bands",
                    band_slot_ptr.len()
                ),
            },
        );
        return;
    }
    let nnz = cols_arr.len();
    if band_slot_ptr.first() != Some(&0)
        || band_slot_ptr.last().map(|&e| e as usize) != Some(nnz)
        || band_slot_ptr.windows(2).any(|w| w[0] > w[1])
    {
        push(
            out,
            Violation::BandPointer {
                window,
                what: format!("must ascend from 0 to {nnz}"),
            },
        );
        return;
    }
    for b in 0..bands {
        let (start, end) = (band_starts[b], band_starts[b + 1]);
        // `i` is the violation's slot coordinate, not just a cursor.
        #[allow(clippy::needless_range_loop)]
        for i in band_slot_ptr[b] as usize..band_slot_ptr[b + 1] as usize {
            let col = cols_arr[i];
            if (col < start || col >= end)
                && !push(
                    out,
                    Violation::BandColumn {
                        window,
                        band: b,
                        slot: i,
                        col,
                        start,
                        end,
                    },
                )
            {
                return;
            }
        }
    }
}

/// Schedule-level shape checks shared by the typed auditors.
fn audit_shape(
    window_count: usize,
    rows: usize,
    length: usize,
    claimed_nnz: usize,
    actual_nnz: usize,
    out: &mut Vec<Violation>,
) {
    if length == 0 {
        push(
            out,
            Violation::Shape {
                what: "engine length is zero".into(),
            },
        );
        return;
    }
    let expected = rows.div_ceil(length);
    if window_count != expected {
        push(
            out,
            Violation::Shape {
                what: format!(
                    "{window_count} windows cover {rows} rows at length {length} (expected {expected})"
                ),
            },
        );
    }
    if claimed_nnz != actual_nnz {
        push(
            out,
            Violation::Shape {
                what: format!(
                    "windows hold {actual_nnz} slots but the schedule claims {claimed_nnz} non-zeros"
                ),
            },
        );
    }
}

/// Rebuilds `(original_row, col, value_bits)` triplets from a flat
/// schedule whose rows start at original row `row0` (0 for a flat
/// schedule, the tile's first row for a tile). Precondition (established
/// by the structural audit): every `row_mod` indexes inside `row_perm`
/// after its window's offset.
fn collect_triplets(schedule: &ScheduledMatrix, row0: u32, out: &mut Vec<(u32, u32, u32)>) {
    let row_perm = schedule.row_perm();
    for (w, window) in schedule.windows().iter().enumerate() {
        for slot in window.iter_slots() {
            let pos = w * schedule.length() + slot.row_mod as usize;
            out.push((row0 + row_perm[pos], slot.col, slot.value.to_bits()));
        }
    }
}

/// Compares rebuilt triplets against the source matrix (contract item 7).
fn audit_coverage(
    rebuilt: &mut Vec<(u32, u32, u32)>,
    rows: usize,
    cols: usize,
    matrix: &CsrMatrix,
    out: &mut Vec<Violation>,
) {
    if rows != matrix.rows() || cols != matrix.cols() {
        push(
            out,
            Violation::Coverage {
                what: format!(
                    "schedule is {rows}x{cols} but the matrix is {}x{}",
                    matrix.rows(),
                    matrix.cols()
                ),
            },
        );
        return;
    }
    rebuilt.sort_unstable();
    let mut expected: Vec<(u32, u32, u32)> = matrix
        .iter()
        .map(|(r, c, v)| (r as u32, c as u32, v.to_bits()))
        .collect();
    expected.sort_unstable();
    if *rebuilt == expected {
        return;
    }
    if rebuilt.len() != expected.len() {
        push(
            out,
            Violation::Coverage {
                what: format!(
                    "schedule streams {} triplets but the matrix has {}",
                    rebuilt.len(),
                    expected.len()
                ),
            },
        );
        return;
    }
    for (got, want) in rebuilt.iter().zip(&expected) {
        if got != want
            && !push(
                out,
                Violation::Coverage {
                    what: format!(
                        "slot stream has (row {}, col {}, bits {:#x}) where the matrix has (row {}, col {}, bits {:#x})",
                        got.0, got.1, got.2, want.0, want.1, want.2
                    ),
                },
            )
        {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GustConfig;
    use crate::engine::Gust;
    use gust_sparse::prelude::*;

    fn schedules(seed: u64) -> (CsrMatrix, ScheduledMatrix) {
        let m = CsrMatrix::from(&gen::uniform(24, 24, 120, seed));
        let s = Gust::new(GustConfig::new(8)).schedule(&m);
        (m, s)
    }

    #[test]
    fn clean_schedules_audit_clean() {
        let (m, s) = schedules(11);
        assert!(audit_schedule(&s).is_clean());
        assert!(audit_schedule_against(&s, &m).is_clean());
        let gust = Gust::new(GustConfig::new(8).with_cache_budget(Some(64)));
        let tiled = gust.schedule_tiled(&m);
        assert!(
            tiled.tiles()[0].bands().count() > 1,
            "want a multi-band tile"
        );
        assert!(audit_tiled(&tiled).is_clean());
        assert!(audit_tiled_against(&tiled, &m).is_clean());
    }

    #[test]
    fn verify_wraps_clean_schedules() {
        let (_, s) = schedules(12);
        let nnz = s.nnz();
        let verified = VerifiedSchedule::verify(s).expect("clean schedule verifies");
        // Deref exposes the schedule transparently.
        assert_eq!(verified.nnz(), nnz);
        assert_eq!(verified.into_inner().nnz(), nnz);
    }

    #[test]
    fn raw_auditor_catches_write_collision() {
        // Two slots of color 0 both target adder 1: the forged stream the
        // serializer could otherwise admit in release builds.
        let mut out = Vec::new();
        let mut scratch = Scratch::new(4);
        audit_window_soa(
            0,
            1,
            &[0, 2],
            &[0, 1],
            &[1, 1],
            &[0, 1],
            4,
            4,
            8,
            &mut scratch,
            &mut out,
        );
        assert!(matches!(
            out.as_slice(),
            [Violation::WriteCollision {
                window: 0,
                color: 0,
                row_mod: 1,
                first_slot: 0,
                second_slot: 1,
            }]
        ));
    }

    #[test]
    fn raw_auditor_catches_out_of_bounds_column() {
        let mut out = Vec::new();
        let mut scratch = Scratch::new(4);
        audit_window_soa(
            3,
            1,
            &[0, 1],
            &[2],
            &[0],
            &[8],
            4,
            4,
            8,
            &mut scratch,
            &mut out,
        );
        assert_eq!(out.len(), 1);
        let text = out[0].to_string();
        assert!(text.contains("out of range"), "{text}");
        assert!(text.contains("window 3"), "{text}");
    }

    #[test]
    fn raw_auditor_bounds_ragged_window_adders() {
        // length 4 but the final window only covers 2 rows: adder 3 is in
        // bounds for the crossbar yet out of bounds for the scatter.
        let mut out = Vec::new();
        let mut scratch = Scratch::new(4);
        audit_window_soa(
            1,
            1,
            &[0, 1],
            &[0],
            &[3],
            &[0],
            4,
            2,
            8,
            &mut scratch,
            &mut out,
        );
        assert!(matches!(
            out.as_slice(),
            [Violation::AdderOutOfBounds { limit: 2, .. }]
        ));
    }

    #[test]
    fn row_perm_duplicates_are_rejected() {
        let mut out = Vec::new();
        audit_row_perm(&[0, 1, 1, 3], 4, &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].to_string().contains("twice"));
    }

    #[test]
    fn band_containment_is_checked() {
        let mut out = Vec::new();
        // Band 0 is [0, 4) but slot 1 claims column 5.
        audit_banded_window(0, &[0, 2, 3], &[0, 4, 8], &[1, 5, 6], &mut out);
        assert!(matches!(
            out.as_slice(),
            [Violation::BandColumn {
                band: 0,
                slot: 1,
                col: 5,
                ..
            }]
        ));
        assert!(out[0].to_string().contains("outside"));
    }

    #[test]
    fn reports_are_truncated() {
        let mut out = Vec::new();
        let n = MAX_VIOLATIONS + 40;
        // Every slot's column is out of bounds; one color per slot so the
        // color pointers stay valid.
        let color_ptr: Vec<u32> = (0..=n as u32).collect();
        let lanes = vec![0u32; n];
        let row_mods = vec![0u32; n];
        let cols = vec![9u32; n];
        let mut scratch = Scratch::new(4);
        audit_window_soa(
            0,
            n as u32,
            &color_ptr,
            &lanes,
            &row_mods,
            &cols,
            4,
            4,
            8,
            &mut scratch,
            &mut out,
        );
        assert_eq!(out.len(), MAX_VIOLATIONS);
        let report = AuditReport::from_violations(out);
        assert!(report.to_string().contains("truncated"));
    }
}
