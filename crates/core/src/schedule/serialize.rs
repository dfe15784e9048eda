//! Binary serialization of the scheduled format — the byte stream the
//! Buffer Filler consumes from off-chip memory (§3.3 "Streaming the
//! Inputs").
//!
//! The `GUST` container is the corruption-safe envelope it shares with
//! the `GSPB` matrix cache ([`gust_sparse::io::write_envelope`];
//! little-endian):
//!
//! ```text
//! "GUST" | version u32 | payload_len u64 | payload | crc32 u32
//! ```
//!
//! The trailer CRC32 covers exactly the payload, so a truncated copy or
//! a bit flip on disk surfaces as [`ReadScheduleError::Corrupt`] before
//! any structural parsing happens; the structural validation below then
//! only ever sees payloads whose bytes are intact.
//!
//! The payload:
//!
//! ```text
//! length u32 | rows u64 | cols u64
//! | row_perm: rows × u32
//! | window count u64
//! | per window: colors u32, vizing u32, stalls u64,
//!   then colors × l dense cells — each cell:
//!     occupancy u8 (0 = empty), then value f32, row_mod u32, col u32
//! ```
//!
//! The dense per-color cell grid is deliberate: it is the paper's actual
//! `M_sch`/`Row_sch`/`Col_sch` stream (empty cells included — the
//! emptiness *is* the utilization loss), so the byte length of a serialized
//! schedule matches [`ScheduledMatrix::dense_stream_bytes`] up to the
//! per-cell bookkeeping this container format adds.

// Production loaders must surface failures as typed errors, never
// `unwrap` panics: this module is part of the fault-tolerant loading
// path (see the README's Robustness section).
#![deny(clippy::unwrap_used)]

use super::scheduled::{ScheduledMatrix, WindowSchedule};
use crate::verify::{self, AuditReport, VerifiedSchedule};
use gust_sparse::faults;
use gust_sparse::io::{read_envelope, write_envelope, write_file_atomic, EnvelopeError};
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"GUST";
/// Container version. v2 wrapped the v1 body in the length-prefixed,
/// CRC32-trailed envelope above; v1 streams are rejected (rebuild the
/// schedule once to migrate).
const VERSION: u32 = 2;

/// Errors from reading a serialized schedule.
#[derive(Debug)]
#[non_exhaustive]
pub enum ReadScheduleError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Not a schedule stream, or an unsupported version.
    Format(String),
    /// The stream was a schedule container once and has been damaged:
    /// truncated payload or checksum mismatch. Callers may quarantine
    /// the file and rebuild the schedule, as the serving registry does
    /// ([`crate::serve::ScheduleRegistry`]).
    Corrupt(String),
    /// The bytes are intact (checksum valid) and structurally parseable,
    /// but the schedule they encode violates the safety contract the
    /// unsafe kernels rely on — a forged or wrongly-generated stream.
    /// Treated exactly like [`Self::Corrupt`] by the serving registry:
    /// quarantined and rebuilt, never executed.
    Audit(Box<AuditReport>),
}

impl std::fmt::Display for ReadScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "io error: {e}"),
            Self::Format(m) => write!(f, "format error: {m}"),
            Self::Corrupt(m) => write!(f, "corrupt schedule: {m}"),
            Self::Audit(report) => write!(f, "schedule failed the safety audit: {report}"),
        }
    }
}

impl std::error::Error for ReadScheduleError {}

impl From<io::Error> for ReadScheduleError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<EnvelopeError> for ReadScheduleError {
    fn from(e: EnvelopeError) -> Self {
        match e {
            EnvelopeError::BadMagic => Self::Format("bad magic".into()),
            EnvelopeError::Version(v) => Self::Format(format!("unsupported version {v}")),
            EnvelopeError::Corrupt(why) => Self::Corrupt(why),
            EnvelopeError::Io(e) => Self::Io(e),
        }
    }
}

/// Writes `schedule` to `writer` in the stream format above.
///
/// Accepts any [`Write`]r by value; pass `&mut writer` to keep ownership.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_schedule<W: Write>(schedule: &ScheduledMatrix, writer: W) -> io::Result<()> {
    let mut payload = Vec::new();
    payload.write_all(&(schedule.length() as u32).to_le_bytes())?;
    payload.write_all(&(schedule.rows() as u64).to_le_bytes())?;
    payload.write_all(&(schedule.cols() as u64).to_le_bytes())?;
    for &orig in schedule.row_perm() {
        payload.write_all(&orig.to_le_bytes())?;
    }
    payload.write_all(&(schedule.windows().len() as u64).to_le_bytes())?;
    for window in schedule.windows() {
        write_window(window, schedule.length(), &mut payload)?;
    }
    write_envelope(
        MAGIC,
        VERSION,
        faults::sites::SCHEDULE_WRITE,
        &payload,
        writer,
    )
}

/// Writes one window's header and dense per-color cell grid.
fn write_window<W: Write>(window: &WindowSchedule, l: usize, writer: &mut W) -> io::Result<()> {
    writer.write_all(&window.colors().to_le_bytes())?;
    writer.write_all(&window.vizing_bound().to_le_bytes())?;
    writer.write_all(&window.stalls().to_le_bytes())?;
    // Dense per-color grid, lane-major within a color. The SoA slots of
    // one color are already lane-sorted, so a merge against `0..l`
    // produces the dense cells without any scratch grid.
    for c in 0..window.colors() {
        let mut slots = window.iter_color(c).peekable();
        for lane in 0..l as u32 {
            match slots.peek() {
                Some(slot) if slot.lane == lane => {
                    writer.write_all(&[1u8])?;
                    writer.write_all(&slot.value.to_le_bytes())?;
                    writer.write_all(&slot.row_mod.to_le_bytes())?;
                    writer.write_all(&slot.col.to_le_bytes())?;
                    slots.next();
                }
                _ => writer.write_all(&[0u8])?,
            }
        }
        // A slot whose lane is outside 0..l can never merge; dropping
        // it silently would serialize a wrong schedule.
        assert!(
            slots.peek().is_none(),
            "slot lane out of range for schedule length {l}"
        );
    }
    Ok(())
}

/// Reads a schedule previously written with [`write_schedule`].
///
/// # Errors
///
/// [`ReadScheduleError::Format`] on a bad magic/version or inconsistent
/// structure, [`ReadScheduleError::Corrupt`] on a truncated or
/// bit-damaged stream (checksum mismatch), [`ReadScheduleError::Io`] on
/// reader failure.
pub fn read_schedule<R: Read>(reader: R) -> Result<ScheduledMatrix, ReadScheduleError> {
    let payload = read_envelope(MAGIC, VERSION, faults::sites::SCHEDULE_READ, reader)?;
    let mut reader = payload.as_slice();
    let length = read_u32(&mut reader)? as usize;
    if length == 0 {
        return Err(ReadScheduleError::Format("zero length".into()));
    }
    let rows = read_u64(&mut reader)? as usize;
    let cols = read_u64(&mut reader)? as usize;
    let row_perm = read_row_perm(&mut reader, rows)?;
    let window_count = read_u64(&mut reader)? as usize;
    if window_count != rows.div_ceil(length) {
        return Err(ReadScheduleError::Format(format!(
            "window count {window_count} inconsistent with {rows} rows at length {length}"
        )));
    }
    let mut windows = Vec::with_capacity(window_count);
    // Sized by the rows a window can cover, not by the untrusted
    // `length` alone: a forged `length = u32::MAX` must not ask for
    // tens of gigabytes of scratch.
    let mut scratch = verify::Scratch::new(length.min(rows));
    for w in 0..window_count {
        let window_rows = (rows - (w * length).min(rows)).min(length);
        windows.push(read_window(
            &mut reader,
            length,
            cols,
            w,
            window_rows,
            &mut scratch,
        )?);
    }
    if !reader.is_empty() {
        return Err(ReadScheduleError::Format(format!(
            "{} trailing payload bytes",
            reader.len()
        )));
    }
    Ok(ScheduledMatrix::from_parts(
        length, rows, cols, row_perm, windows,
    ))
}

/// Reads a row permutation, auditing that it is a true permutation of
/// `0..rows` (bounds *and* duplicate-free — a duplicate would scatter
/// two scheduled positions into one output row concurrently) so a forged
/// stream surfaces as an audit rejection rather than a construction
/// panic or a data race.
fn read_row_perm<R: Read>(reader: &mut R, rows: usize) -> Result<Vec<u32>, ReadScheduleError> {
    let mut row_perm = Vec::with_capacity(rows.min(1 << 20));
    for _ in 0..rows {
        row_perm.push(read_u32(reader)?);
    }
    let mut violations = Vec::new();
    verify::audit_row_perm(&row_perm, rows, &mut violations);
    if !violations.is_empty() {
        return Err(ReadScheduleError::Audit(Box::new(
            AuditReport::from_violations(violations),
        )));
    }
    Ok(row_perm)
}

/// Reads one window block (header + dense cell grid), then audits the
/// raw SoA arrays against the full safety contract (bounds, ragged-row
/// adder limit, intra-color write-disjointness) **before** any
/// constructor runs. Constructors only `debug_assert` these invariants,
/// so the audit here is what keeps a checksum-valid forged stream out of
/// the unsafe SIMD kernels in release builds.
fn read_window<R: Read>(
    reader: &mut R,
    length: usize,
    cols: usize,
    window_index: usize,
    window_rows: usize,
    scratch: &mut verify::Scratch,
) -> Result<WindowSchedule, ReadScheduleError> {
    let colors = read_u32(reader)?;
    let vizing = read_u32(reader)?;
    let stalls = read_u64(reader)?;
    // The stream stores each color's cells in lane order, which is
    // exactly the structure-of-arrays slot order — fill the four
    // parallel arrays directly.
    let mut lanes: Vec<u32> = Vec::new();
    let mut row_mods: Vec<u32> = Vec::new();
    let mut cols_arr: Vec<u32> = Vec::new();
    let mut values: Vec<f32> = Vec::new();
    // Cap the pre-allocation: `colors` is an untrusted header field, and
    // a corrupt stream should fail on its next read, not on a giant
    // up-front reservation.
    let mut color_ptr: Vec<u32> = Vec::with_capacity((colors as usize).min(1 << 20) + 1);
    color_ptr.push(0);
    for _ in 0..colors {
        for lane in 0..length {
            let mut occ = [0u8; 1];
            reader.read_exact(&mut occ)?;
            match occ[0] {
                0 => {}
                1 => {
                    let value = f32::from_le_bytes(read_array(reader)?);
                    let row_mod = read_u32(reader)?;
                    let col = read_u32(reader)?;
                    lanes.push(lane as u32);
                    row_mods.push(row_mod);
                    cols_arr.push(col);
                    values.push(value);
                }
                other => {
                    return Err(ReadScheduleError::Format(format!(
                        "bad occupancy byte {other}"
                    )))
                }
            }
        }
        color_ptr.push(lanes.len() as u32);
    }
    let mut violations = Vec::new();
    verify::audit_window_soa(
        window_index,
        colors,
        &color_ptr,
        &lanes,
        &row_mods,
        &cols_arr,
        length,
        window_rows,
        cols,
        scratch,
        &mut violations,
    );
    if !violations.is_empty() {
        return Err(ReadScheduleError::Audit(Box::new(
            AuditReport::from_violations(violations),
        )));
    }
    Ok(WindowSchedule::from_soa(
        colors, vizing, stalls, color_ptr, lanes, row_mods, cols_arr, values,
    ))
}

/// Reads a flat schedule from `path`.
///
/// # Errors
///
/// As [`read_schedule`]; a file that cannot be opened is
/// [`ReadScheduleError::Io`].
pub fn read_schedule_file(path: impl AsRef<Path>) -> Result<ScheduledMatrix, ReadScheduleError> {
    read_schedule(io::BufReader::new(std::fs::File::open(path)?))
}

/// Writes a flat schedule to `path` atomically (see [`write_schedule`]
/// for the container format and [`write_file_atomic`] for the write).
///
/// # Errors
///
/// Propagates I/O errors; on error `path` is untouched.
pub fn write_schedule_file(schedule: &ScheduledMatrix, path: impl AsRef<Path>) -> io::Result<()> {
    write_file_atomic(path, |w| write_schedule(schedule, w))
}

/// Reads a flat schedule from `path` and wraps it as a
/// [`VerifiedSchedule`] witness.
///
/// The wrap is free: [`read_schedule`] already audits the raw arrays of
/// every window (and the row permutation) unconditionally — release
/// builds included — before any constructor runs, so every schedule a
/// reader returns has passed the full safety audit. This is the
/// once-per-admission point where disk bytes earn the right to flow
/// into the unsafe kernels.
///
/// # Errors
///
/// As [`read_schedule_file`]; a contract violation in an intact stream
/// is [`ReadScheduleError::Audit`].
pub fn read_schedule_file_verified(
    path: impl AsRef<Path>,
) -> Result<VerifiedSchedule<ScheduledMatrix>, ReadScheduleError> {
    read_schedule_file(path).map(VerifiedSchedule::witness)
}

fn read_array<R: Read, const N: usize>(reader: &mut R) -> io::Result<[u8; N]> {
    let mut buf = [0u8; N];
    reader.read_exact(&mut buf)?;
    Ok(buf)
}

fn read_u32<R: Read>(reader: &mut R) -> io::Result<u32> {
    Ok(u32::from_le_bytes(read_array(reader)?))
}

fn read_u64<R: Read>(reader: &mut R) -> io::Result<u64> {
    Ok(u64::from_le_bytes(read_array(reader)?))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // tests may unwrap; the gate is for load paths
pub(crate) mod tests {
    use super::*;
    use crate::config::{GustConfig, SchedulingPolicy};
    use crate::engine::Gust;
    use gust_sparse::checksum::crc32;
    use gust_sparse::prelude::*;

    /// Container envelope: magic 4 + version 4 + payload_len 8.
    const ENVELOPE: usize = 16;

    /// Recomputes the trailer CRC after a test deliberately edits
    /// payload bytes, so structural validation (not the checksum) is
    /// what the reader exercises.
    fn fix_crc(buf: &mut [u8]) {
        let end = buf.len() - 4;
        let crc = crc32(&buf[ENVELOPE..end]);
        buf[end..].copy_from_slice(&crc.to_le_bytes());
    }

    fn round_trip(schedule: &ScheduledMatrix) -> ScheduledMatrix {
        let mut buf = Vec::new();
        write_schedule(schedule, &mut buf).expect("write to vec");
        read_schedule(buf.as_slice()).expect("read own output")
    }

    #[test]
    fn round_trips_exactly() {
        let m = CsrMatrix::from(&gen::uniform(40, 50, 300, 3));
        let schedule = Gust::new(GustConfig::new(8)).schedule(&m);
        let back = round_trip(&schedule);
        assert_eq!(back, schedule);
    }

    #[test]
    fn round_trips_naive_schedules_with_stalls() {
        let m = CsrMatrix::from(&gen::uniform(32, 32, 400, 5));
        let schedule =
            Gust::new(GustConfig::new(8).with_policy(SchedulingPolicy::Naive)).schedule(&m);
        assert!(schedule.total_stalls() > 0);
        let back = round_trip(&schedule);
        assert_eq!(back.total_stalls(), schedule.total_stalls());
        assert_eq!(back, schedule);
    }

    #[test]
    fn deserialized_schedule_executes_identically() {
        let m = CsrMatrix::from(&gen::power_law(64, 64, 500, 1.9, 7));
        let gust = Gust::new(GustConfig::new(16));
        let schedule = gust.schedule(&m);
        let back = round_trip(&schedule);
        let x: Vec<f32> = (0..64).map(|i| (i % 7) as f32 - 3.0).collect();
        assert_eq!(gust.execute(&back, &x), gust.execute(&schedule, &x));
    }

    #[test]
    fn stream_length_tracks_dense_stream_size() {
        let m = CsrMatrix::from(&gen::uniform(64, 64, 400, 9));
        let schedule = Gust::new(GustConfig::new(16)).schedule(&m);
        let mut buf = Vec::new();
        write_schedule(&schedule, &mut buf).expect("write");
        // Cells dominate: colors × l × (1..13 bytes per cell); the payload
        // must be within the per-cell bounds around the dense-stream model.
        let cells = schedule.total_colors() * 16;
        assert!(buf.len() as u64 >= cells, "at least 1 byte per cell");
        assert!(
            (buf.len() as u64) < 13 * cells + 4096,
            "bounded by full cells + header"
        );
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let err = read_schedule(&b"NOPE"[..]).unwrap_err();
        assert!(err.to_string().contains("bad magic"));
        let mut buf = Vec::new();
        buf.extend_from_slice(b"GUST");
        buf.extend_from_slice(&99u32.to_le_bytes());
        let err = read_schedule(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("unsupported version"));
    }

    #[test]
    fn rejects_truncation() {
        let m = CsrMatrix::identity(8);
        let schedule = Gust::new(GustConfig::new(4)).schedule(&m);
        let mut buf = Vec::new();
        write_schedule(&schedule, &mut buf).expect("write");
        for cut in [3usize, 10, buf.len() / 2, buf.len() - 1] {
            assert!(
                read_schedule(&buf[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }

    #[test]
    fn rejects_out_of_range_columns() {
        // Serialize a valid schedule, then corrupt the first occupied
        // cell's column index to point past the matrix.
        let m = CsrMatrix::identity(8);
        let schedule = Gust::new(GustConfig::new(4)).schedule(&m);
        let mut buf = Vec::new();
        write_schedule(&schedule, &mut buf).expect("write");
        // Payload layout: length 4 + rows 8 + cols 8 + row_perm 8×4 +
        // window count 8 + first window header (colors 4 + vizing 4 +
        // stalls 8) = 76 bytes past the envelope, then the first cell.
        // Lane 0 of the identity's first window is occupied.
        let occupied = ENVELOPE + 76;
        assert_eq!(buf[occupied], 1, "expected an occupied first cell");
        // Cell layout: occupancy u8, value f32, row_mod u32, col u32.
        let col_at = occupied + 1 + 4 + 4;
        buf[col_at..col_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        fix_crc(&mut buf);
        let err = read_schedule(buf.as_slice()).unwrap_err();
        assert!(
            err.to_string().contains("out of range"),
            "unexpected error: {err}"
        );
    }

    /// CRC32 of every byte but the trailer of
    /// [`container_bytes_are_pinned`]'s stream (8 192 bytes at version 2).
    /// The trailer stays out: for CRC-32, `crc(M ‖ crc(M))` is one
    /// constant for every message of a given length, so a whole-stream
    /// CRC would pin only the length.
    const PINNED_CRC: u32 = 0x1394_a98a;

    /// Pins the `GUST` bytes of one fixed seeded schedule. A change to
    /// what `write_schedule` emits must come with a `VERSION` bump (and a
    /// new constant here), never silently.
    #[test]
    fn container_bytes_are_pinned() {
        let m = CsrMatrix::from(&gen::power_law(64, 64, 500, 1.9, 7));
        let schedule = Gust::new(GustConfig::new(16)).schedule(&m);
        let mut buf = Vec::new();
        write_schedule(&schedule, &mut buf).unwrap();
        assert_eq!(VERSION, 2);
        assert_eq!(buf.len(), 8_192);
        let crc = crc32(&buf[..buf.len() - 4]);
        assert_eq!(crc, PINNED_CRC, "GUST bytes changed: {crc:#010x}");
    }

    /// A checksum-valid 48-byte container: `length = u32::MAX` with
    /// zero rows, columns and windows.
    pub(crate) fn forged_huge_length_container() -> Vec<u8> {
        let mut payload = Vec::new();
        payload.extend_from_slice(&u32::MAX.to_le_bytes()); // length
        payload.extend_from_slice(&0u64.to_le_bytes()); // rows
        payload.extend_from_slice(&0u64.to_le_bytes()); // cols
        payload.extend_from_slice(&0u64.to_le_bytes()); // window count
        let mut buf = Vec::new();
        write_envelope(MAGIC, VERSION, "", &payload, &mut buf).unwrap();
        assert_eq!(buf.len(), 48);
        buf
    }

    /// Regression: the reader sized its audit scratch by the untrusted
    /// `length` field, so this file asked for tens of gigabytes and
    /// aborted the process. The scratch now covers at most `rows`.
    #[test]
    fn forged_huge_length_is_read_without_a_giant_allocation() {
        let bytes = forged_huge_length_container();
        let schedule = read_schedule(bytes.as_slice()).expect("a 0-row schedule is intact");
        assert_eq!(schedule.length(), u32::MAX as usize);
        assert_eq!((schedule.rows(), schedule.cols()), (0, 0));
        assert!(crate::verify::audit_schedule(&schedule).is_clean());
    }

    #[test]
    fn empty_matrix_schedule_round_trips() {
        let coo = CooMatrix::from_triplets(6, 6, vec![(0, 0, 1.0)]).unwrap();
        let m = CsrMatrix::from(&coo);
        let gust = Gust::new(GustConfig::new(4));
        let schedule = gust.schedule(&m);
        assert_eq!(round_trip(&schedule), schedule);
        // A 0-row matrix has no windows at all; it must pass admission
        // and round-trip too.
        let empty = CsrMatrix::try_new(0, 16, vec![0], vec![], vec![]).expect("0×16 is valid");
        let schedule = gust.schedule(&empty);
        let admitted = gust
            .admit(schedule.clone())
            .expect("a 0-row schedule is legal");
        assert_eq!(round_trip(&admitted), schedule);
    }

    #[test]
    fn every_single_byte_corruption_is_detected_in_all_containers() {
        let m = CsrMatrix::from(&gen::uniform(8, 8, 30, 3));
        let gust = Gust::new(GustConfig::new(4));
        let mut clean = Vec::new();
        write_schedule(&gust.schedule(&m), &mut clean).expect("write flat");
        read_schedule(clean.as_slice()).expect("clean stream must load");
        for byte in 0..clean.len() {
            let mut damaged = clean.clone();
            damaged[byte] ^= 0x10;
            let err = read_schedule(damaged.as_slice())
                .expect_err(&format!("flat: byte {byte} corruption must not load"));
            // Past magic + version, damage must be classified as
            // Corrupt (the checksum or length prefix catches it
            // before structural parsing runs).
            if byte >= 8 {
                assert!(
                    matches!(err, ReadScheduleError::Corrupt(_)),
                    "flat: byte {byte} expected Corrupt, got {err:?}"
                );
            }
        }
    }

    #[test]
    fn version_one_streams_are_rejected_as_format() {
        let m = CsrMatrix::identity(6);
        let schedule = Gust::new(GustConfig::new(3)).schedule(&m);
        let mut buf = Vec::new();
        write_schedule(&schedule, &mut buf).expect("write");
        buf[4..8].copy_from_slice(&1u32.to_le_bytes());
        let err = read_schedule(buf.as_slice()).unwrap_err();
        assert!(
            matches!(&err, ReadScheduleError::Format(m) if m.contains("unsupported version 1")),
            "unexpected error: {err:?}"
        );
    }
}
