//! Binary serialization of the scheduled format — the byte stream the
//! Buffer Filler consumes from off-chip memory (§3.3 "Streaming the
//! Inputs").
//!
//! Every container shares one corruption-safe envelope (little-endian):
//!
//! ```text
//! magic | version u32 | payload_len u64 | payload | crc32 u32
//! ```
//!
//! The trailer CRC32 covers exactly the payload, so a truncated copy or
//! a bit flip on disk surfaces as [`ReadScheduleError::Corrupt`] before
//! any structural parsing happens; the structural validation below then
//! only ever sees payloads whose bytes are intact.
//!
//! The flat (`"GUST"`) payload:
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
//!
//! The tiled (`"GUTL"`) payload wraps the same per-window cell grid in
//! row-tile boundaries and, per tile, a column-band partition plus
//! per-window band offsets (see [`write_tiled_schedule`]).

// Production loaders must surface failures as typed errors, never
// `unwrap` panics: this module is part of the fault-tolerant loading
// path (see the README's Robustness section).
#![deny(clippy::unwrap_used)]

use super::banded::{BandedSchedule, BandedWindow, ColumnBands};
use super::scheduled::{ScheduledMatrix, WindowSchedule};
use super::tiled::{self, TiledSchedule};
use crate::verify::{self, AuditReport, VerifiedSchedule};
use gust_sparse::checksum::crc32;
use gust_sparse::faults;
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"GUST";
/// Tiled-schedule container magic: row-tile boundaries wrapping one
/// banded-schedule body (band partition + per-window cell grids + band
/// offsets) per tile.
const TILED_MAGIC: &[u8; 4] = b"GUTL";
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
    /// the file and rebuild the schedule (see [`read_schedule_cached`]).
    Corrupt(String),
    /// The bytes are intact (checksum valid) and structurally parseable,
    /// but the schedule they encode violates the safety contract the
    /// unsafe kernels rely on — a forged or wrongly-generated stream.
    /// Treated exactly like [`Self::Corrupt`] by the cached loaders and
    /// the serving registry: quarantined and rebuilt, never executed.
    Audit(Box<AuditReport>),
}

impl ReadScheduleError {
    /// Wraps audit violations with the tile index they were found in
    /// (window indices inside a tile are tile-local).
    fn in_tile(self, tile: usize) -> Self {
        match self {
            Self::Audit(report) => Self::Audit(Box::new(report.in_tile(tile))),
            other => other,
        }
    }
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

/// Writes the container envelope around an already-serialized payload.
fn write_container<W: Write>(magic: &[u8; 4], payload: &[u8], writer: &mut W) -> io::Result<()> {
    faults::check_io(faults::sites::SCHEDULE_WRITE)?;
    writer.write_all(magic)?;
    writer.write_all(&VERSION.to_le_bytes())?;
    writer.write_all(&(payload.len() as u64).to_le_bytes())?;
    writer.write_all(payload)?;
    writer.write_all(&crc32(payload).to_le_bytes())?;
    Ok(())
}

/// Reads and verifies the container envelope, returning the intact
/// payload bytes. `magic_label` names the container in the bad-magic
/// message.
fn read_container<R: Read>(
    magic: &[u8; 4],
    magic_label: &str,
    mut reader: R,
) -> Result<Vec<u8>, ReadScheduleError> {
    faults::check_io(faults::sites::SCHEDULE_READ)?;
    let eof_corrupt = |what: &str, e: io::Error| -> ReadScheduleError {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            ReadScheduleError::Corrupt(format!("truncated {what}"))
        } else {
            ReadScheduleError::Io(e)
        }
    };
    let mut got = [0u8; 4];
    reader
        .read_exact(&mut got)
        .map_err(|e| eof_corrupt("container magic", e))?;
    if &got != magic {
        return Err(ReadScheduleError::Format(magic_label.to_string()));
    }
    let mut word = [0u8; 4];
    reader
        .read_exact(&mut word)
        .map_err(|e| eof_corrupt("container version", e))?;
    let version = u32::from_le_bytes(word);
    if version != VERSION {
        return Err(ReadScheduleError::Format(format!(
            "unsupported version {version}"
        )));
    }
    let mut qword = [0u8; 8];
    reader
        .read_exact(&mut qword)
        .map_err(|e| eof_corrupt("payload length", e))?;
    let payload_len = u64::from_le_bytes(qword);
    // Read the payload in bounded chunks: a forged length fails at the
    // stream's real end instead of one giant up-front allocation.
    const CHUNK: u64 = 16 << 20;
    let mut payload = Vec::new();
    let mut remaining = payload_len;
    while remaining > 0 {
        let take = usize::try_from(remaining.min(CHUNK))
            .map_err(|_| ReadScheduleError::Corrupt("payload exceeds address space".into()))?;
        let start = payload.len();
        payload.resize(start + take, 0u8);
        reader
            .read_exact(&mut payload[start..])
            .map_err(|e| eof_corrupt("payload", e))?;
        remaining -= take as u64;
    }
    let mut trailer = [0u8; 4];
    reader
        .read_exact(&mut trailer)
        .map_err(|e| eof_corrupt("checksum trailer", e))?;
    let stored = u32::from_le_bytes(trailer);
    let computed = crc32(&payload);
    if stored != computed {
        return Err(ReadScheduleError::Corrupt(format!(
            "payload checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
        )));
    }
    Ok(payload)
}

/// Writes `schedule` to `writer` in the stream format above.
///
/// Accepts any [`Write`]r by value; pass `&mut writer` to keep ownership.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_schedule<W: Write>(schedule: &ScheduledMatrix, mut writer: W) -> io::Result<()> {
    let mut payload = Vec::new();
    payload.write_all(&(schedule.length() as u32).to_le_bytes())?;
    payload.write_all(&(schedule.rows() as u64).to_le_bytes())?;
    payload.write_all(&(schedule.cols() as u64).to_le_bytes())?;
    write_flat_body(schedule, &mut payload, |_, _| Ok(()))?;
    write_container(MAGIC, &payload, &mut writer)
}

/// Writes a flat schedule's body — row permutation, window count, then
/// each window's cell grid followed by whatever `after_window(w, writer)`
/// appends (a tile body's band offsets). The flat container's payload
/// past its shape header, and the tail of every tile body.
fn write_flat_body<W: Write>(
    schedule: &ScheduledMatrix,
    writer: &mut W,
    mut after_window: impl FnMut(usize, &mut W) -> io::Result<()>,
) -> io::Result<()> {
    for &orig in schedule.row_perm() {
        writer.write_all(&orig.to_le_bytes())?;
    }
    writer.write_all(&(schedule.windows().len() as u64).to_le_bytes())?;
    for (w, window) in schedule.windows().iter().enumerate() {
        write_window(window, schedule.length(), writer)?;
        after_window(w, writer)?;
    }
    Ok(())
}

/// Writes one window's header and dense per-color cell grid (the shared
/// payload of the flat container and of every tile body).
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

/// Writes one row tile's body in the `GUTL` container: band count, band
/// boundaries, then the tile's flat body ([`write_flat_body`]) with each
/// window's band slot offsets after its cell grid.
fn write_banded_body<W: Write>(tile: &BandedSchedule, writer: &mut W) -> io::Result<()> {
    writer.write_all(&(tile.bands().count() as u64).to_le_bytes())?;
    for &start in tile.bands().starts() {
        writer.write_all(&start.to_le_bytes())?;
    }
    write_flat_body(tile.flat(), writer, |w, writer| {
        for &ptr in tile.windows()[w].band_slot_ptr() {
            writer.write_all(&ptr.to_le_bytes())?;
        }
        Ok(())
    })
}

/// Writes `schedule` — a 2D row×column tiled schedule — to `writer`.
///
/// Payload layout (inside the checksummed envelope, [`TILED_MAGIC`]):
///
/// ```text
/// length u32 | rows u64 | cols u64
/// | tile count u64 | row_starts: (tiles + 1) × u32
/// | per tile: band count u64, band_starts, row_perm (tile rows × u32),
///   window count u64, windows (cell grid + band offsets)
/// ```
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_tiled_schedule<W: Write>(schedule: &TiledSchedule, mut writer: W) -> io::Result<()> {
    let mut payload = Vec::new();
    payload.write_all(&(schedule.length() as u32).to_le_bytes())?;
    payload.write_all(&(schedule.rows() as u64).to_le_bytes())?;
    payload.write_all(&(schedule.cols() as u64).to_le_bytes())?;
    payload.write_all(&(schedule.tile_count() as u64).to_le_bytes())?;
    for &start in schedule.row_starts() {
        payload.write_all(&start.to_le_bytes())?;
    }
    for tile in schedule.tiles() {
        write_banded_body(tile, &mut payload)?;
    }
    write_container(TILED_MAGIC, &payload, &mut writer)
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
    let payload = read_container(MAGIC, "bad magic", reader)?;
    let mut reader = payload.as_slice();
    let length = read_u32(&mut reader)? as usize;
    if length == 0 {
        return Err(ReadScheduleError::Format("zero length".into()));
    }
    let rows = read_u64(&mut reader)? as usize;
    let cols = read_u64(&mut reader)? as usize;
    let schedule = read_flat_body(&mut reader, length, rows, cols, |_, _, _| Ok(()))?;
    if !reader.is_empty() {
        return Err(ReadScheduleError::Format(format!(
            "{} trailing payload bytes",
            reader.len()
        )));
    }
    Ok(schedule)
}

/// Reads the flat body of a `rows × cols` schedule at accelerator length
/// `length` (see [`write_flat_body`]), calling `after_window(reader, w,
/// window)` after each audited window (a tile body reads its band
/// offsets there), and builds it through [`ScheduledMatrix::from_parts`].
fn read_flat_body<R: Read>(
    reader: &mut R,
    length: usize,
    rows: usize,
    cols: usize,
    mut after_window: impl FnMut(&mut R, usize, &WindowSchedule) -> Result<(), ReadScheduleError>,
) -> Result<ScheduledMatrix, ReadScheduleError> {
    let row_perm = read_row_perm(reader, rows)?;
    let window_count = read_u64(reader)? as usize;
    if window_count != rows.div_ceil(length) {
        return Err(ReadScheduleError::Format(format!(
            "window count {window_count} inconsistent with {rows} rows at length {length}"
        )));
    }
    let mut windows = Vec::with_capacity(window_count);
    let mut scratch = verify::Scratch::new(length);
    for w in 0..window_count {
        let window_rows = (rows - (w * length).min(rows)).min(length);
        let window = read_window(reader, length, cols, w, window_rows, &mut scratch)?;
        after_window(reader, w, &window)?;
        windows.push(window);
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

/// Reads the banded payload that follows the shape header (see
/// [`write_banded_body`]), validating the band partition and every
/// window's band offsets — one row tile's body in the `GUTL` container.
fn read_banded_body<R: Read>(
    reader: &mut R,
    length: usize,
    rows: usize,
    cols: usize,
) -> Result<BandedSchedule, ReadScheduleError> {
    // Band boundaries are u32, so a stream claiming more columns than
    // u32 can address is corrupt by construction — reject it before the
    // `cols as u32` comparison below could truncate.
    if u32::try_from(cols).is_err() {
        return Err(ReadScheduleError::Format(format!(
            "column count {cols} exceeds the u32 band-boundary range"
        )));
    }
    let band_count = read_u64(reader)? as usize;
    if band_count == 0 {
        return Err(ReadScheduleError::Format("zero bands".into()));
    }
    // Bands partition u32 column indices, so a count past the column
    // range is corrupt by construction — reject before trusting it for
    // an allocation (a truncated stream then errors on the next read).
    if band_count > cols.max(1) {
        return Err(ReadScheduleError::Format(format!(
            "band count {band_count} exceeds {cols} columns"
        )));
    }
    let mut band_starts = Vec::with_capacity(band_count + 1);
    for _ in 0..=band_count {
        band_starts.push(read_u32(reader)?);
    }
    if band_starts[0] != 0
        || band_starts.last().copied() != Some(cols as u32)
        || band_starts.windows(2).any(|w| w[0] > w[1])
    {
        return Err(ReadScheduleError::Format(format!(
            "band boundaries must ascend from 0 to {cols}"
        )));
    }
    let bands = ColumnBands::from_starts(band_starts);
    let mut banded = Vec::new();
    let flat = read_flat_body(reader, length, rows, cols, |reader, w, window| {
        let mut band_slot_ptr = Vec::with_capacity(bands.count() + 1);
        for _ in 0..=bands.count() {
            band_slot_ptr.push(read_u32(reader)?);
        }
        let layout = BandedWindow::from_merged(w, window, band_slot_ptr, bands.starts())
            .map_err(|report| ReadScheduleError::Audit(Box::new(report)))?;
        banded.push(layout);
        Ok(())
    })?;
    Ok(BandedSchedule::from_parts(flat, bands, banded))
}

/// Reads a tiled schedule previously written with
/// [`write_tiled_schedule`].
///
/// # Errors
///
/// [`ReadScheduleError::Format`] on a bad magic/version, an inconsistent
/// row-tile partition, or any per-tile banded-body violation;
/// [`ReadScheduleError::Corrupt`] on a truncated or bit-damaged stream;
/// [`ReadScheduleError::Io`] on reader failure.
pub fn read_tiled_schedule<R: Read>(reader: R) -> Result<TiledSchedule, ReadScheduleError> {
    let payload = read_container(TILED_MAGIC, "bad tiled magic", reader)?;
    let mut reader = payload.as_slice();
    let length = read_u32(&mut reader)? as usize;
    if length == 0 {
        return Err(ReadScheduleError::Format("zero length".into()));
    }
    let rows = read_u64(&mut reader)? as usize;
    let cols = read_u64(&mut reader)? as usize;
    // Row-tile boundaries are u32; a row count past that range is
    // corrupt by construction.
    if u32::try_from(rows).is_err() {
        return Err(ReadScheduleError::Format(format!(
            "row count {rows} exceeds the u32 tile-boundary range"
        )));
    }
    let tile_count = read_u64(&mut reader)? as usize;
    if tile_count == 0 {
        return Err(ReadScheduleError::Format("zero tiles".into()));
    }
    // Tiles partition the rows, so a count past the row range is corrupt
    // by construction — reject before trusting it for an allocation.
    if tile_count > rows.max(1) {
        return Err(ReadScheduleError::Format(format!(
            "tile count {tile_count} exceeds {rows} rows"
        )));
    }
    let mut row_starts = Vec::with_capacity(tile_count + 1);
    for _ in 0..=tile_count {
        row_starts.push(read_u32(&mut reader)?);
    }
    if !tiled::row_starts_are_valid(&row_starts, rows) {
        return Err(ReadScheduleError::Format(format!(
            "row-tile boundaries must ascend from 0 to {rows}"
        )));
    }
    let mut tiles = Vec::with_capacity(tile_count);
    for t in 0..tile_count {
        let tile_rows = (row_starts[t + 1] - row_starts[t]) as usize;
        tiles.push(
            read_banded_body(&mut reader, length, tile_rows, cols).map_err(|e| e.in_tile(t))?,
        );
    }
    if !reader.is_empty() {
        return Err(ReadScheduleError::Format(format!(
            "{} trailing payload bytes",
            reader.len()
        )));
    }
    Ok(TiledSchedule::from_parts(
        length, rows, cols, row_starts, tiles,
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

/// Writes `path` atomically: bytes land in a uniquely named temporary
/// sibling (`<path>.<pid>.<seq>.tmp` — pid plus a process-wide counter,
/// so concurrent writers of the same destination never share a temp
/// file) and are renamed over the destination only once fully flushed,
/// so an interrupted write or a racing writer never leaves a partial
/// container behind. On error the temporary is removed and `path` is
/// untouched.
fn write_file_atomic(
    path: &Path,
    write: impl FnOnce(&mut io::BufWriter<std::fs::File>) -> io::Result<()>,
) -> io::Result<()> {
    let tmp = {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let mut os = path.as_os_str().to_os_string();
        os.push(format!(".{}.{}.tmp", std::process::id(), seq));
        std::path::PathBuf::from(os)
    };
    let result = (|| {
        let mut writer = io::BufWriter::new(std::fs::File::create(&tmp)?);
        write(&mut writer)?;
        writer.flush()?;
        drop(writer);
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Writes a flat schedule to `path` (atomically — see
/// [`write_schedule`] for the container format).
///
/// # Errors
///
/// Propagates I/O errors; on error `path` is untouched.
pub fn write_schedule_file(schedule: &ScheduledMatrix, path: impl AsRef<Path>) -> io::Result<()> {
    write_file_atomic(path.as_ref(), |w| write_schedule(schedule, w))
}

/// Reads a tiled schedule from `path` (see [`read_schedule_file`]).
///
/// # Errors
///
/// As [`read_tiled_schedule`].
pub fn read_tiled_schedule_file(
    path: impl AsRef<Path>,
) -> Result<TiledSchedule, ReadScheduleError> {
    read_tiled_schedule(io::BufReader::new(std::fs::File::open(path)?))
}

/// Writes a tiled schedule to `path` (atomically — see
/// [`write_schedule_file`]).
///
/// # Errors
///
/// Propagates I/O errors; on error `path` is untouched.
pub fn write_tiled_schedule_file(
    schedule: &TiledSchedule,
    path: impl AsRef<Path>,
) -> io::Result<()> {
    write_file_atomic(path.as_ref(), |w| write_tiled_schedule(schedule, w))
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

/// As [`read_schedule_file_verified`], for tiled schedules.
///
/// # Errors
///
/// As [`read_tiled_schedule_file`].
pub fn read_tiled_schedule_file_verified(
    path: impl AsRef<Path>,
) -> Result<VerifiedSchedule<TiledSchedule>, ReadScheduleError> {
    read_tiled_schedule_file(path).map(VerifiedSchedule::witness)
}

/// Moves a damaged or forged schedule cache out of the way (renamed to
/// `<path>.corrupt`, or removed when the rename fails) and warns on
/// stderr — the quarantine step shared by [`read_schedule_cached`] and
/// the serving registry's disk loads.
pub(crate) fn quarantine_corrupt_cache(path: &Path, err: &ReadScheduleError) {
    match gust_sparse::io::quarantine_corrupt(path) {
        Some(dest) => eprintln!(
            "warning: quarantined corrupt schedule cache {} -> {} ({err})",
            path.display(),
            dest.display()
        ),
        None => eprintln!(
            "warning: removed corrupt schedule cache {} ({err})",
            path.display()
        ),
    }
}

/// The load-or-rebuild policy behind [`read_schedule_cached`]:
/// serve `path` when it holds an intact container; quarantine it (rename
/// to `<path>.corrupt`) when it is damaged; in every failure case fall
/// back to `build` and best-effort rewrite the file. Scheduling again is
/// always correct — the cache only ever saves time, never changes
/// results — so no cache problem is allowed to surface as an error.
fn cached_schedule<T>(
    path: &Path,
    read: impl FnOnce(&Path) -> Result<T, ReadScheduleError>,
    write: impl FnOnce(&T, &Path) -> io::Result<()>,
    build: impl FnOnce() -> T,
) -> T {
    if path.exists() {
        match read(path) {
            Ok(schedule) => return schedule,
            // Damaged bytes and checksum-valid-but-forged contents take
            // the same quarantine path: keep the evidence, never execute.
            Err(err @ (ReadScheduleError::Corrupt(_) | ReadScheduleError::Audit(_))) => {
                quarantine_corrupt_cache(path, &err);
            }
            // Older version, foreign file, transient I/O failure: the
            // rebuild below overwrites it either way.
            Err(_) => {}
        }
    }
    let schedule = build();
    let _ = write(&schedule, path);
    schedule
}

/// Loads a flat schedule from `path`, rebuilding it with `build` when
/// the file is missing, outdated, or damaged. A damaged file is
/// quarantined as `<path>.corrupt` first; the rebuilt schedule is
/// written back (best-effort) so the next load is cheap again.
pub fn read_schedule_cached(
    path: impl AsRef<Path>,
    build: impl FnOnce() -> ScheduledMatrix,
) -> ScheduledMatrix {
    cached_schedule(
        path.as_ref(),
        |p| read_schedule_file(p),
        |s, p| write_schedule_file(s, p),
        build,
    )
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
mod tests {
    use super::*;
    use crate::config::{GustConfig, SchedulingPolicy};
    use crate::engine::Gust;
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

    #[test]
    fn round_trip_preserves_staging_index() {
        let m = CsrMatrix::from(&gen::power_law(64, 64, 500, 1.9, 7));
        let schedule = Gust::new(GustConfig::new(16)).schedule(&m);
        let back = round_trip(&schedule);
        for (a, b) in schedule.windows().iter().zip(back.windows()) {
            assert_eq!(a.gather_cols(), b.gather_cols());
            assert_eq!(a.local_cols(), b.local_cols());
        }
    }

    #[test]
    fn empty_matrix_schedule_round_trips() {
        let coo = CooMatrix::from_triplets(6, 6, vec![(0, 0, 1.0)]).unwrap();
        let m = CsrMatrix::from(&coo);
        let schedule = Gust::new(GustConfig::new(4)).schedule(&m);
        assert_eq!(round_trip(&schedule), schedule);
    }

    /// One tile body as the `GUTL` writer encodes it (no envelope, so
    /// the body reader's structural parsing is what the tests exercise).
    fn body_bytes(schedule: &BandedSchedule) -> Vec<u8> {
        let mut body = Vec::new();
        write_banded_body(schedule, &mut body).expect("write to vec");
        body
    }

    #[test]
    fn banded_schedules_round_trip_exactly() {
        use crate::schedule::{banded::ColumnBands, Scheduler};
        let m = CsrMatrix::from(&gen::power_law(60, 70, 500, 1.9, 21));
        for bands in [1usize, 2, 7] {
            let schedule = Scheduler::new(GustConfig::new(8))
                .schedule_banded_with(&m, ColumnBands::with_count(70, bands));
            let body = body_bytes(&schedule);
            let back = read_banded_body(&mut body.as_slice(), 8, 60, 70).expect("read own output");
            assert_eq!(back, schedule, "{bands} bands");
        }
    }

    #[test]
    fn banded_reader_rejects_out_of_band_columns() {
        use crate::schedule::{banded::ColumnBands, Scheduler};
        let m = CsrMatrix::from(&gen::uniform(16, 16, 80, 3));
        let schedule = Scheduler::new(GustConfig::new(4)).schedule_tiled_with(
            &m,
            1,
            ColumnBands::with_count(16, 2),
        );
        let mut buf = Vec::new();
        write_tiled_schedule(&schedule, &mut buf).expect("write");
        // Payload: length 4 + rows 8 + cols 8 + tile count 8 + 2 × u32
        // row boundaries, then the tile body: band count 8 + 3 × u32
        // band boundaries + 16 × u32 row_perm + window count 8 = 128
        // bytes past the envelope, then the first window (colors 4 +
        // vizing 4 + stalls 8), then the first cell.
        let first_cell = ENVELOPE + 128 + 16;
        let occupied = buf[first_cell..]
            .iter()
            .position(|&b| b == 1)
            .expect("an occupied cell")
            + first_cell;
        // Corrupt the cell's column to sit in the wrong band's range: the
        // flat validation (col < cols) passes, the band check must not.
        let col_at = occupied + 1 + 4 + 4;
        let col = u32::from_le_bytes(buf[col_at..col_at + 4].try_into().unwrap());
        let wrong = if col < 8 { col + 8 } else { col - 8 };
        buf[col_at..col_at + 4].copy_from_slice(&wrong.to_le_bytes());
        fix_crc(&mut buf);
        let err = read_tiled_schedule(buf.as_slice()).unwrap_err();
        assert!(
            err.to_string().contains("outside"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn tiled_schedules_round_trip_exactly() {
        use crate::schedule::{banded::ColumnBands, Scheduler};
        let m = CsrMatrix::from(&gen::power_law(60, 70, 500, 1.9, 33));
        for (tiles, bands) in [(1usize, 1usize), (1, 3), (3, 2), (5, 7)] {
            let schedule = Scheduler::new(GustConfig::new(8)).schedule_tiled_with(
                &m,
                tiles,
                ColumnBands::with_count(70, bands),
            );
            let mut buf = Vec::new();
            write_tiled_schedule(&schedule, &mut buf).expect("write to vec");
            let back = read_tiled_schedule(buf.as_slice()).expect("read own output");
            assert_eq!(back, schedule, "{tiles} tiles × {bands} bands");
            // And the round-tripped schedule executes identically.
            let gust = Gust::new(GustConfig::new(8));
            let x: Vec<f32> = (0..70).map(|i| (i % 5) as f32 - 2.0).collect();
            assert_eq!(
                gust.execute_tiled(&back, &x),
                gust.execute_tiled(&schedule, &x)
            );
        }
    }

    #[test]
    fn tiled_reader_rejects_other_containers_and_truncation() {
        let m = CsrMatrix::from(&gen::uniform(12, 12, 50, 5));
        let gust = Gust::new(GustConfig::new(4));
        // A flat stream is not a tiled stream and vice versa.
        let mut flat_buf = Vec::new();
        write_schedule(&gust.schedule(&m), &mut flat_buf).expect("write");
        assert!(read_tiled_schedule(flat_buf.as_slice()).is_err());

        let tiled = gust.schedule_tiled(&m);
        let mut buf = Vec::new();
        write_tiled_schedule(&tiled, &mut buf).expect("write");
        assert!(read_schedule(buf.as_slice()).is_err());
        for cut in [3usize, 20, buf.len() / 2, buf.len() - 1] {
            assert!(
                read_tiled_schedule(&buf[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }

    #[test]
    fn tiled_reader_rejects_bad_row_boundaries() {
        use crate::schedule::{banded::ColumnBands, Scheduler};
        let m = CsrMatrix::from(&gen::uniform(16, 16, 80, 3));
        let schedule = Scheduler::new(GustConfig::new(4)).schedule_tiled_with(
            &m,
            2,
            ColumnBands::with_count(16, 2),
        );
        let mut buf = Vec::new();
        write_tiled_schedule(&schedule, &mut buf).expect("write");
        // Payload: length 4 + rows 8 + cols 8 + tile count 8 = 28 bytes
        // past the envelope, then 3 × u32 row boundaries.
        let starts_at = ENVELOPE + 28;
        buf[starts_at + 4..starts_at + 8].copy_from_slice(&99u32.to_le_bytes());
        fix_crc(&mut buf);
        let err = read_tiled_schedule(buf.as_slice()).unwrap_err();
        assert!(
            err.to_string().contains("ascend"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn tiled_reader_rejects_empty_interior_tiles() {
        use crate::schedule::{banded::ColumnBands, Scheduler};
        // A checksum-valid stream whose tile bodies are each well formed
        // but whose first tile is empty: boundaries [0, 0, 16]. Only a
        // 0-row matrix may carry an empty tile, and then only one.
        let scheduler = Scheduler::new(GustConfig::new(4));
        let empty = CsrMatrix::try_new(0, 16, vec![0], vec![], vec![]).unwrap();
        let full = CsrMatrix::from(&gen::uniform(16, 16, 80, 3));
        let mut payload = Vec::new();
        payload.extend_from_slice(&4u32.to_le_bytes());
        payload.extend_from_slice(&16u64.to_le_bytes());
        payload.extend_from_slice(&16u64.to_le_bytes());
        payload.extend_from_slice(&2u64.to_le_bytes());
        for start in [0u32, 0, 16] {
            payload.extend_from_slice(&start.to_le_bytes());
        }
        for tile in [&empty, &full] {
            let body = scheduler.schedule_banded_with(tile, ColumnBands::with_count(16, 2));
            payload.extend_from_slice(&body_bytes(&body));
        }
        let mut buf = Vec::new();
        write_container(TILED_MAGIC, &payload, &mut buf).expect("write");
        let err = read_tiled_schedule(buf.as_slice()).unwrap_err();
        assert!(
            err.to_string().contains("ascend"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn zero_row_tiled_schedule_is_admitted_and_round_trips() {
        let m = CsrMatrix::try_new(0, 16, vec![0], vec![], vec![]).expect("0×16 is valid");
        let gust = Gust::new(GustConfig::new(4));
        let schedule = gust.schedule_tiled(&m);
        assert_eq!(schedule.row_starts(), &[0, 0]);
        let admitted = gust
            .admit_tiled(schedule.clone())
            .expect("the single empty tile of a 0-row matrix is legal");
        let mut buf = Vec::new();
        write_tiled_schedule(&admitted, &mut buf).expect("write");
        assert_eq!(read_tiled_schedule(buf.as_slice()).unwrap(), schedule);
    }

    #[test]
    fn banded_round_trip_handles_truncation() {
        use crate::schedule::{banded::ColumnBands, Scheduler};
        let m = CsrMatrix::from(&gen::uniform(12, 12, 50, 5));
        let schedule = Scheduler::new(GustConfig::new(4))
            .schedule_banded_with(&m, ColumnBands::with_count(12, 3));
        let body = body_bytes(&schedule);
        for cut in [3usize, 20, body.len() / 2, body.len() - 1] {
            assert!(
                read_banded_body(&mut &body[..cut], 4, 12, 12).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }

    #[test]
    fn every_single_byte_corruption_is_detected_in_all_containers() {
        let m = CsrMatrix::from(&gen::uniform(8, 8, 30, 3));
        let gust = Gust::new(GustConfig::new(4));
        let mut streams: Vec<(&str, Vec<u8>)> = Vec::new();
        let mut buf = Vec::new();
        write_schedule(&gust.schedule(&m), &mut buf).expect("write flat");
        streams.push(("flat", buf));
        let mut buf = Vec::new();
        write_tiled_schedule(&gust.schedule_tiled(&m), &mut buf).expect("write tiled");
        streams.push(("tiled", buf));

        for (kind, clean) in streams {
            let read_any = |bytes: &[u8]| -> Result<(), ReadScheduleError> {
                match kind {
                    "flat" => read_schedule(bytes).map(drop),
                    _ => read_tiled_schedule(bytes).map(drop),
                }
            };
            read_any(&clean).expect("clean stream must load");
            for byte in 0..clean.len() {
                let mut damaged = clean.clone();
                damaged[byte] ^= 0x10;
                let err = read_any(&damaged)
                    .expect_err(&format!("{kind}: byte {byte} corruption must not load"));
                // Past magic + version, damage must be classified as
                // Corrupt (the checksum or length prefix catches it
                // before structural parsing runs).
                if byte >= 8 {
                    assert!(
                        matches!(err, ReadScheduleError::Corrupt(_)),
                        "{kind}: byte {byte} expected Corrupt, got {err:?}"
                    );
                }
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

    #[test]
    fn cached_loader_quarantines_corrupt_schedules_and_rebuilds() {
        let dir = std::env::temp_dir().join(format!(
            "gust-sched-cache-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.gust");
        let m = CsrMatrix::from(&gen::uniform(12, 12, 50, 5));
        let gust = Gust::new(GustConfig::new(4));
        let expected = gust.schedule(&m);

        // First call: cache miss, builds and writes.
        let first = read_schedule_cached(&path, || gust.schedule(&m));
        assert_eq!(first, expected);
        assert!(path.is_file(), "cache must be written on miss");

        // Second call: pure cache hit (build closure must not run).
        let second = read_schedule_cached(&path, || panic!("cache hit must not rebuild"));
        assert_eq!(second, expected);

        // Damage one payload byte: the next load must quarantine and
        // rebuild transparently, with a correct result.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x04;
        std::fs::write(&path, &bytes).unwrap();
        let third = read_schedule_cached(&path, || gust.schedule(&m));
        assert_eq!(third, expected, "corrupt cache must fall back to rebuild");
        let quarantined = dir.join("m.gust.corrupt");
        assert!(quarantined.is_file(), "corrupt cache must be quarantined");
        assert_eq!(std::fs::read(&quarantined).unwrap(), bytes);
        // And the cache was rewritten healthy.
        assert_eq!(read_schedule_file(&path).unwrap(), expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cached_loader_round_trips_flat_and_tiled() {
        let dir = std::env::temp_dir().join(format!(
            "gust-sched-cache2-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let m = CsrMatrix::from(&gen::uniform(12, 12, 50, 5));
        let gust = Gust::new(GustConfig::new(4));

        let flat_path = dir.join("m.gust");
        let flat = read_schedule_cached(&flat_path, || gust.schedule(&m));
        assert_eq!(
            read_schedule_cached(&flat_path, || panic!("hit must not rebuild")),
            flat
        );

        // The load-or-rebuild policy is container-generic.
        let tiled_path = dir.join("m.gutl");
        let read = |p: &Path| read_tiled_schedule_file(p);
        let write = |s: &TiledSchedule, p: &Path| write_tiled_schedule_file(s, p);
        let tiled = cached_schedule(&tiled_path, read, write, || gust.schedule_tiled(&m));
        assert_eq!(
            cached_schedule(&tiled_path, read, write, || panic!("hit must not rebuild")),
            tiled
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
