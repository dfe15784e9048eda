//! Schedule safety auditor: statically proves the contract the unsafe
//! kernels rely on.
//!
//! The `unsafe` AVX2 / AVX-512 walks in [`crate::kernels`] gather `x`
//! without bounds checks, so every slot column must be in bounds; their
//! adder scatters and the output row writes are bounds-checked scalar
//! stores in slot order, and stay exact only if each output row is
//! written once. Those are contract items 1, 2 and 4 below. Item 3, the
//! edge-coloring's write-disjointness, is what the paper's crossbar
//! model ([`crate::hw`]) needs — one multiplier port and one adder per
//! slot per cycle — and no software walk relies on it. In-memory
//! schedules establish the whole contract by construction (the
//! [`Scheduler`](crate::schedule::Scheduler) colors conflict-free and the
//! constructors `debug_assert` it), but `debug_assert`s vanish in release
//! builds, and a deserialized `GUST` stream can carry a valid checksum
//! around forged contents. This module closes that gap: it audits the
//! **complete safety contract** for any schedule and returns a typed
//! [`AuditReport`] with slot-precise violation locations instead of
//! panicking.
//!
//! # The audited contract
//!
//! For every window of a schedule:
//!
//! 1. **Structure** — the SoA arrays agree in length, `color_ptr` is a
//!    monotone CSR-style partition covering every slot exactly once, and
//!    the window uses at least its recorded Eq. 1 (Vizing) bound of
//!    colors.
//! 2. **Index bounds** — every slot column is `< matrix.cols` (the `x`
//!    gather bound), every lane is `< l` and every destination adder is
//!    `< window_rows` (the accumulator scatter bound, tighter than `l` on
//!    the ragged final window).
//! 3. **Write-disjointness** — within one color no two slots share a lane
//!    (one multiplier port per cycle) and no two slots target the same
//!    adder. This is the cycle model's conflict-freedom (the `hw`
//!    crossbar); the software walks scatter in slot order and do not
//!    depend on it. It stays in the contract because the hardware model
//!    runs the same schedules.
//! 4. **Row permutation** — `row_perm` is a true permutation of
//!    `0..rows`: in bounds *and* duplicate-free, since a duplicate would
//!    write two windows' outputs into one row and leave another unset.
//! 5. **Coverage** (optional, against a source [`CsrMatrix`]) — the slot
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

use crate::schedule::scheduled::{ScheduledMatrix, WindowSchedule};
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
    /// Schedule-level shape disagreement (window count, nnz accounting).
    Shape {
        /// What disagrees.
        what: String,
    },
    /// A window's SoA arrays or `color_ptr` are malformed, or it has
    /// fewer colors than its recorded Eq. 1 bound.
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
    /// The row permutation is not a permutation of `0..rows`.
    RowPerm {
        /// What is wrong.
        what: String,
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
            Violation::RowPerm { what } => write!(f, "row permutation {what}"),
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

/// Audits a schedule's complete safety contract (items 1–4 of the
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
    // No window covers more than `min(l, rows)` rows, and adders are
    // bounded by their window's rows before the scratch is indexed.
    let mut scratch = Scratch::new(schedule.length().min(schedule.rows()));
    for (w, window) in schedule.windows().iter().enumerate() {
        let window_rows =
            (schedule.rows() - (w * schedule.length()).min(schedule.rows())).min(schedule.length());
        audit_window_soa(
            w,
            window.colors(),
            window.vizing_bound(),
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
    }
    audit_row_perm(schedule.row_perm(), schedule.rows(), &mut out);
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
    collect_triplets(schedule, &mut rebuilt);
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
/// `vizing_bound` is the window's recorded Eq. 1 lower bound; a window
/// with fewer colors than it is a [`Violation::Structure`].
/// `window_rows` is the row count this window actually covers
/// (`min(l, rows − w·l)`), the true adder scatter bound on the ragged
/// final window.
#[allow(clippy::too_many_arguments)]
pub(crate) fn audit_window_soa(
    window: usize,
    colors: u32,
    vizing_bound: u32,
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
    if colors < vizing_bound
        && !push(
            out,
            Violation::Structure {
                window,
                what: format!("{colors} colors below the Vizing bound {vizing_bound}"),
            },
        )
    {
        return;
    }
    debug_assert!(scratch.epoch.len() >= window_rows);
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

/// Audits the row permutation: a true permutation of `0..rows` (contract
/// item 4). A duplicate would scatter two scheduled positions into one
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

/// Schedule-level shape checks.
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

/// Rebuilds `(original_row, col, value_bits)` triplets from a schedule.
/// Precondition (established by the structural audit): every `row_mod`
/// indexes inside `row_perm` after its window's offset.
fn collect_triplets(schedule: &ScheduledMatrix, out: &mut Vec<(u32, u32, u32)>) {
    let row_perm = schedule.row_perm();
    for (w, window) in schedule.windows().iter().enumerate() {
        for slot in window.iter_slots() {
            let pos = w * schedule.length() + slot.row_mod as usize;
            out.push((row_perm[pos], slot.col, slot.value.to_bits()));
        }
    }
}

/// Compares rebuilt triplets against the source matrix (contract item 5).
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
            0,
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
