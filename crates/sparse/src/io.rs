//! Matrix I/O: Matrix Market text and a binary CSR cache.
//!
//! The paper's real matrices come from the SuiteSparse and SNAP collections,
//! distributed in the Matrix Market exchange format. The synthetic suite in
//! [`crate::suite`] stands in for them offline, but when the genuine `.mtx`
//! files are available this module loads them so every experiment can run on
//! the true data.
//!
//! Supported: `coordinate` storage with `real`, `integer` or `pattern`
//! fields and `general`, `symmetric` or `skew-symmetric` symmetry. (This
//! covers every matrix in the paper's evaluation.)
//!
//! # Binary matrix cache
//!
//! Matrix Market is a text format: loading a multi-GB SuiteSparse matrix
//! re-parses every non-zero on every run. [`write_bin`] / [`read_bin`]
//! store a validated [`CsrMatrix`] as a little-endian header plus the raw
//! CSR arrays, so a bench harness parses once, caches, and thereafter
//! loads at I/O speed ([`read_bin_file`] on a warm page cache is a
//! `memcpy`) — the first step of the roadmap's mmap item.

// Production loaders must surface failures as typed errors, never
// `unwrap` panics: this module is part of the fault-tolerant loading
// path (see the README's Robustness section).
#![deny(clippy::unwrap_used)]

use crate::checksum::{Crc32, Crc32Reader, Crc32Writer};
use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::error::SparseError;
use crate::faults;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};

/// Parses a Matrix Market stream into a [`CooMatrix`].
///
/// Accepts any [`Read`]er by value; pass `&mut reader` to keep ownership
/// (the `&mut R: Read` blanket impl applies).
///
/// # Errors
///
/// [`SparseError::ParseError`] on malformed input,
/// [`SparseError::IndexOutOfBounds`] / [`SparseError::DuplicateEntry`] if the
/// entries contradict the declared header.
///
/// # Example
///
/// ```
/// use gust_sparse::io::read_matrix_market;
///
/// let text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.5\n2 2 2.5\n";
/// let m = read_matrix_market(text.as_bytes())?;
/// assert_eq!(m.nnz(), 2);
/// # Ok::<(), gust_sparse::SparseError>(())
/// ```
pub fn read_matrix_market<R: Read>(reader: R) -> Result<CooMatrix, SparseError> {
    let mut lines = BufReader::new(reader).lines().enumerate();

    // Header line.
    let (idx, header) = next_line(&mut lines)?;
    let header_lc = header.to_ascii_lowercase();
    let fields: Vec<&str> = header_lc.split_whitespace().collect();
    if fields.len() < 5 || fields[0] != "%%matrixmarket" || fields[1] != "matrix" {
        return Err(parse_err(idx, "expected '%%MatrixMarket matrix …' header"));
    }
    if fields[2] != "coordinate" {
        return Err(parse_err(
            idx,
            format!(
                "unsupported storage '{}': only 'coordinate' is supported",
                fields[2]
            ),
        ));
    }
    let field_kind = fields[3];
    if !matches!(field_kind, "real" | "integer" | "pattern") {
        return Err(parse_err(
            idx,
            format!("unsupported field '{field_kind}': use real/integer/pattern"),
        ));
    }
    let symmetry = fields[4];
    if !matches!(symmetry, "general" | "symmetric" | "skew-symmetric") {
        return Err(parse_err(idx, format!("unsupported symmetry '{symmetry}'")));
    }

    // Size line (first non-comment line).
    let (idx, size_line) = next_content_line(&mut lines)?;
    let dims: Vec<&str> = size_line.split_whitespace().collect();
    if dims.len() != 3 {
        return Err(parse_err(idx, "size line must be 'rows cols nnz'"));
    }
    let rows: usize = parse_num(dims[0], idx, "rows")?;
    let cols: usize = parse_num(dims[1], idx, "cols")?;
    let nnz: usize = parse_num(dims[2], idx, "nnz")?;

    let mut coo = CooMatrix::new(rows, cols);
    let mut seen = 0usize;
    while seen < nnz {
        let (idx, line) = next_content_line(&mut lines)?;
        let parts: Vec<&str> = line.split_whitespace().collect();
        let expected_parts = if field_kind == "pattern" { 2 } else { 3 };
        if parts.len() < expected_parts {
            return Err(parse_err(
                idx,
                format!("entry needs {expected_parts} fields, found {}", parts.len()),
            ));
        }
        let r: usize = parse_num(parts[0], idx, "row index")?;
        let c: usize = parse_num(parts[1], idx, "column index")?;
        if r == 0 || c == 0 {
            return Err(parse_err(idx, "matrix market indices are 1-based"));
        }
        let value: f32 = if field_kind == "pattern" {
            1.0
        } else {
            parts[2]
                .parse::<f32>()
                .map_err(|e| parse_err(idx, format!("bad value '{}': {e}", parts[2])))?
        };
        coo.push(r - 1, c - 1, value)?;
        if symmetry != "general" && r != c {
            let mirrored = if symmetry == "skew-symmetric" {
                -value
            } else {
                value
            };
            coo.push(c - 1, r - 1, mirrored)?;
        }
        seen += 1;
    }
    coo.check_duplicates()?;
    Ok(coo)
}

/// Reads a Matrix Market file from `path`.
///
/// # Errors
///
/// Any [`SparseError`] from parsing, or a [`SparseError::ParseError`] at line
/// 0 wrapping the I/O failure.
pub fn read_matrix_market_file(path: impl AsRef<Path>) -> Result<CooMatrix, SparseError> {
    let file = std::fs::File::open(path.as_ref()).map_err(|e| SparseError::ParseError {
        line: 0,
        message: format!("cannot open {}: {e}", path.as_ref().display()),
    })?;
    read_matrix_market(file)
}

/// Writes `matrix` as `coordinate real general` Matrix Market text.
///
/// Accepts any [`Write`]r by value; pass `&mut writer` to keep ownership.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_matrix_market<W: Write>(matrix: &CooMatrix, mut writer: W) -> std::io::Result<()> {
    writeln!(writer, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(writer, "% written by gust-sparse")?;
    writeln!(
        writer,
        "{} {} {}",
        matrix.rows(),
        matrix.cols(),
        matrix.nnz()
    )?;
    for (r, c, v) in matrix.iter() {
        writeln!(writer, "{} {} {}", r + 1, c + 1, v)?;
    }
    Ok(())
}

/// Binary CSR cache magic.
const BIN_MAGIC: &[u8; 4] = b"GSPB";
/// Binary CSR cache format version.
///
/// * v2 added the source byte length to the header.
/// * v3 made the format corruption-safe: the body is length-prefixed
///   (`payload_len u64` right after the version) and followed by a
///   CRC32 trailer, and the header records a CRC32 fingerprint of the
///   source file besides its length (see [`SourceFingerprint`]).
///
/// Older versions are rejected with a [`SparseError::ParseError`], which
/// for the cache use case simply forces one reparse-and-rewrite.
const BIN_VERSION: u32 = 3;

/// Fingerprint of the source file a cached matrix was parsed from:
/// its byte length and the CRC32 of its contents.
/// [`read_matrix_market_cached`] compares both against the current
/// source to decide freshness, which closes the classic mtime blind spot
/// (a rewrite landing in the same filesystem timestamp tick as the cache
/// write). Zero fields mean "not recorded" and skip that comparison; the
/// all-zero [`Default`] is what [`write_bin`] records.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SourceFingerprint {
    /// Source byte length (0 = not recorded; a parseable Matrix Market
    /// file is never empty).
    pub len: u64,
    /// CRC32 of the source bytes (0 = not recorded).
    pub crc: u32,
}

/// Streams `path` once and returns its [`SourceFingerprint`].
///
/// # Errors
///
/// Propagates I/O errors from opening or reading the file.
pub fn file_fingerprint(path: impl AsRef<Path>) -> std::io::Result<SourceFingerprint> {
    let mut file = std::fs::File::open(path)?;
    let mut crc = Crc32::new();
    let mut len = 0u64;
    let mut buf = vec![0u8; 1 << 20];
    loop {
        let n = file.read(&mut buf)?;
        if n == 0 {
            break;
        }
        crc.update(&buf[..n]);
        len += n as u64;
    }
    Ok(SourceFingerprint {
        len,
        crc: crc.finish(),
    })
}

/// Byte length of a v3 payload for a `rows × …` matrix with `nnz`
/// non-zeros; `None` if it overflows `u64` (only a forged header can).
fn bin_payload_len(rows: u64, nnz: u64) -> Option<u64> {
    // source_len u64 + source_crc u32 + rows/cols/nnz u64 each.
    let fixed = 8u64 + 4 + 8 + 8 + 8;
    let indptr = rows.checked_add(1)?.checked_mul(8)?;
    let entries = nnz.checked_mul(8)?; // index u32 + value f32 per entry
    fixed.checked_add(indptr)?.checked_add(entries)
}

/// Writes `matrix` in the binary CSR cache format (little-endian) with
/// no recorded source fingerprint (see [`write_bin_with_fingerprint`]):
///
/// ```text
/// magic "GSPB" | version u32 | payload_len u64 | payload | crc32 u32
/// payload = source_len u64 | source_crc u32 | rows u64 | cols u64
///         | nnz u64 | indptr: (rows + 1) × u64 | indices: nnz × u32
///         | values: nnz × f32
/// ```
///
/// `payload_len` covers exactly the payload (not magic/version/trailer),
/// and the trailing CRC32 is computed over the same bytes, so any
/// truncation or bit flip after the version field surfaces as
/// [`SparseError::Corrupt`] on read.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_bin<W: Write>(matrix: &CsrMatrix, writer: W) -> std::io::Result<()> {
    write_bin_with_fingerprint(matrix, SourceFingerprint::default(), writer)
}

/// As [`write_bin`], recording only the source byte length (kept for
/// callers that have no source bytes to checksum).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_bin_with_source<W: Write>(
    matrix: &CsrMatrix,
    source_len: u64,
    writer: W,
) -> std::io::Result<()> {
    write_bin_with_fingerprint(
        matrix,
        SourceFingerprint {
            len: source_len,
            crc: 0,
        },
        writer,
    )
}

/// As [`write_bin`], recording the full [`SourceFingerprint`] of the
/// file the matrix was parsed from (see [`read_matrix_market_cached`]).
///
/// # Errors
///
/// Propagates I/O errors from the writer (including injected
/// [`faults::sites::IO_WRITE`] faults when fault injection is active).
pub fn write_bin_with_fingerprint<W: Write>(
    matrix: &CsrMatrix,
    source: SourceFingerprint,
    mut writer: W,
) -> std::io::Result<()> {
    faults::check_io(faults::sites::IO_WRITE)?;
    let (indptr, indices, values) = matrix.raw_parts();
    let payload_len = bin_payload_len(matrix.rows() as u64, matrix.nnz() as u64)
        .ok_or_else(|| std::io::Error::other("matrix too large for the GSPB format"))?;
    writer.write_all(BIN_MAGIC)?;
    writer.write_all(&BIN_VERSION.to_le_bytes())?;
    writer.write_all(&payload_len.to_le_bytes())?;
    // Everything from here to the trailer goes through the CRC.
    let mut writer = Crc32Writer::new(writer);
    writer.write_all(&source.len.to_le_bytes())?;
    writer.write_all(&source.crc.to_le_bytes())?;
    writer.write_all(&(matrix.rows() as u64).to_le_bytes())?;
    writer.write_all(&(matrix.cols() as u64).to_le_bytes())?;
    writer.write_all(&(matrix.nnz() as u64).to_le_bytes())?;
    // Bulk-convert each array into one contiguous byte buffer per array
    // so a multi-GB matrix is a handful of large writes, not nnz tiny
    // ones.
    let mut buf: Vec<u8> = Vec::with_capacity(indptr.len() * 8);
    for &p in indptr {
        buf.extend_from_slice(&(p as u64).to_le_bytes());
    }
    writer.write_all(&buf)?;
    buf.clear();
    buf.reserve(indices.len() * 4);
    for &c in indices {
        buf.extend_from_slice(&c.to_le_bytes());
    }
    writer.write_all(&buf)?;
    buf.clear();
    for &v in values {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    writer.write_all(&buf)?;
    debug_assert_eq!(writer.written(), payload_len);
    let crc = writer.crc();
    writer.inner_mut().write_all(&crc.to_le_bytes())?;
    Ok(())
}

/// Writes the binary CSR cache to `path` (see [`write_bin`]).
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_bin_file(matrix: &CsrMatrix, path: impl AsRef<Path>) -> std::io::Result<()> {
    write_bin_file_with_source(matrix, 0, path)
}

/// Writes the binary CSR cache to `path`, recording the source byte
/// length (see [`write_bin_with_source`]).
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_bin_file_with_source(
    matrix: &CsrMatrix,
    source_len: u64,
    path: impl AsRef<Path>,
) -> std::io::Result<()> {
    write_bin_file_with_fingerprint(
        matrix,
        SourceFingerprint {
            len: source_len,
            crc: 0,
        },
        path,
    )
}

/// Builds a collision-free temporary sibling name for an atomic write
/// to `path`: `<path>.<pid>.<seq>.tmp`. The pid disambiguates separate
/// processes writing the same destination; the process-wide counter
/// disambiguates concurrent writers (and repeated writes) within one
/// process. A fixed `.tmp` sibling — the pre-PR-9 scheme — let two
/// concurrent writers of the same cache path truncate each other's
/// in-progress temp file and rename a partial artifact into place.
pub(crate) fn unique_tmp_sibling(path: &Path) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let mut os = path.as_os_str().to_os_string();
    os.push(format!(".{}.{}.tmp", std::process::id(), seq));
    PathBuf::from(os)
}

/// Writes the binary CSR cache to `path`, recording the full source
/// fingerprint (see [`write_bin_with_fingerprint`]).
///
/// The write is atomic at the destination: bytes land in a uniquely
/// named temporary sibling first (per-process id + per-call counter, so
/// concurrent writers of the same path never share a temp file) and are
/// renamed over `path` only once fully flushed, so a crash, an I/O
/// failure mid-write, or a racing writer can never leave a partial
/// cache for a later load to trip over.
///
/// # Errors
///
/// Propagates I/O errors; on error the temporary file is removed and
/// `path` is untouched.
pub fn write_bin_file_with_fingerprint(
    matrix: &CsrMatrix,
    source: SourceFingerprint,
    path: impl AsRef<Path>,
) -> std::io::Result<()> {
    let path = path.as_ref();
    let tmp = unique_tmp_sibling(path);
    let result = (|| {
        let mut writer = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
        write_bin_with_fingerprint(matrix, source, &mut writer)?;
        writer.flush()?;
        drop(writer);
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Maps a raw read failure: end-of-stream mid-structure means the bytes
/// were damaged (truncated copy, torn write) → [`SparseError::Corrupt`];
/// anything else is a live I/O failure → [`SparseError::Io`].
fn read_failure(what: &str, e: &std::io::Error) -> SparseError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        SparseError::Corrupt(format!("truncated {what}"))
    } else {
        SparseError::Io(format!("reading {what}: {e}"))
    }
}

/// Reads `count` bytes in bounded chunks, so a forged size field fails
/// at the stream's real end instead of attempting one giant allocation
/// up front (pre-allocation never outruns the bytes actually received).
fn read_chunked<R: Read>(reader: &mut R, count: u64, what: &str) -> Result<Vec<u8>, SparseError> {
    const CHUNK: u64 = 16 << 20;
    let mut buf = Vec::new();
    let mut remaining = count;
    while remaining > 0 {
        let take = usize::try_from(remaining.min(CHUNK))
            .map_err(|_| SparseError::Corrupt(format!("{what} size exceeds address space")))?;
        let start = buf.len();
        buf.resize(start + take, 0u8);
        reader
            .read_exact(&mut buf[start..])
            .map_err(|e| read_failure(what, &e))?;
        remaining -= take as u64;
    }
    Ok(buf)
}

/// Reads a matrix previously written with [`write_bin`], re-validating
/// every CSR invariant (the cache may come from an untrusted disk).
///
/// # Errors
///
/// [`SparseError::ParseError`] on a bad magic or an unsupported version
/// (the stream is not a v3 GSPB artifact at all),
/// [`SparseError::Corrupt`] on truncation, a payload length that
/// contradicts the declared shape, or a CRC mismatch (it was one, and
/// has been damaged), [`SparseError::Io`] on a live read failure, and
/// [`SparseError::InvalidStructure`] / [`SparseError::IndexOutOfBounds`]
/// if the (intact) arrays do not form a valid CSR matrix.
pub fn read_bin<R: Read>(reader: R) -> Result<CsrMatrix, SparseError> {
    read_bin_with_fingerprint(reader).map(|(matrix, _)| matrix)
}

/// As [`read_bin`], also returning the recorded source byte length
/// (0 when the writer did not record one — see
/// [`write_bin_with_source`]).
///
/// # Errors
///
/// As [`read_bin`].
pub fn read_bin_with_source<R: Read>(reader: R) -> Result<(CsrMatrix, u64), SparseError> {
    read_bin_with_fingerprint(reader).map(|(matrix, fp)| (matrix, fp.len))
}

/// As [`read_bin`], also returning the recorded [`SourceFingerprint`]
/// (zero fields when the writer did not record one).
///
/// # Errors
///
/// As [`read_bin`] (plus injected [`faults::sites::IO_READ`] faults,
/// surfaced as [`SparseError::Io`], when fault injection is active).
pub fn read_bin_with_fingerprint<R: Read>(
    mut reader: R,
) -> Result<(CsrMatrix, SourceFingerprint), SparseError> {
    faults::check_io(faults::sites::IO_READ)?;
    let mut magic = [0u8; 4];
    reader
        .read_exact(&mut magic)
        .map_err(|e| read_failure("binary matrix header", &e))?;
    if &magic != BIN_MAGIC {
        return Err(SparseError::ParseError {
            line: 0,
            message: "not a GSPB binary matrix stream".into(),
        });
    }
    let mut word = [0u8; 4];
    reader
        .read_exact(&mut word)
        .map_err(|e| read_failure("version", &e))?;
    let version = u32::from_le_bytes(word);
    if version != BIN_VERSION {
        return Err(SparseError::ParseError {
            line: 0,
            message: format!("unsupported binary version {version}"),
        });
    }
    let mut qword = [0u8; 8];
    reader
        .read_exact(&mut qword)
        .map_err(|e| read_failure("payload length", &e))?;
    let declared_payload = u64::from_le_bytes(qword);

    // Everything between the length prefix and the trailer is
    // checksummed; parse it through the CRC adapter.
    let mut payload = Crc32Reader::new(reader);
    fn read_u64<R: Read>(payload: &mut R, what: &str) -> Result<u64, SparseError> {
        let mut buf = [0u8; 8];
        payload
            .read_exact(&mut buf)
            .map_err(|e| read_failure(what, &e))?;
        Ok(u64::from_le_bytes(buf))
    }
    let source_len = read_u64(&mut payload, "source length")?;
    let source_crc = {
        let mut buf = [0u8; 4];
        payload
            .read_exact(&mut buf)
            .map_err(|e| read_failure("source checksum", &e))?;
        u32::from_le_bytes(buf)
    };
    let rows64 = read_u64(&mut payload, "rows")?;
    let cols64 = read_u64(&mut payload, "cols")?;
    let nnz64 = read_u64(&mut payload, "nnz")?;

    // The shape fields and the payload length prefix are redundant:
    // they must agree exactly, or some of them are forged/damaged. This
    // is also the pre-allocation cap — sizes are cross-checked *before*
    // any array is read, and reads stay chunked regardless.
    let expected_payload = bin_payload_len(rows64, nnz64)
        .ok_or_else(|| SparseError::Corrupt(format!("shape {rows64}x{cols64} overflows")))?;
    if expected_payload != declared_payload {
        return Err(SparseError::Corrupt(format!(
            "payload length {declared_payload} does not match the declared shape \
             (rows {rows64}, nnz {nnz64} require {expected_payload})"
        )));
    }
    let to_usize = |v: u64, what: &str| -> Result<usize, SparseError> {
        usize::try_from(v).map_err(|_| SparseError::Corrupt(format!("{what} {v} does not fit")))
    };
    let rows = to_usize(rows64, "row count")?;
    let cols = to_usize(cols64, "column count")?;
    to_usize(nnz64, "nnz")?;

    // `chunks_exact(N)` yields exactly-N-byte slices; the copy into a
    // fixed array cannot come up short, so no fallible conversion here.
    let word8 = |c: &[u8]| {
        let mut w = [0u8; 8];
        w.copy_from_slice(c);
        w
    };
    let word4 = |c: &[u8]| {
        let mut w = [0u8; 4];
        w.copy_from_slice(c);
        w
    };
    let indptr_bytes = read_chunked(&mut payload, (rows64 + 1) * 8, "indptr")?;
    let indptr: Vec<usize> = indptr_bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(word8(c)) as usize)
        .collect();
    drop(indptr_bytes);
    let indices_bytes = read_chunked(&mut payload, nnz64 * 4, "indices")?;
    let indices: Vec<u32> = indices_bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(word4(c)))
        .collect();
    drop(indices_bytes);
    let values_bytes = read_chunked(&mut payload, nnz64 * 4, "values")?;
    let values: Vec<f32> = values_bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(word4(c)))
        .collect();
    drop(values_bytes);

    let computed_crc = payload.crc();
    let mut trailer = [0u8; 4];
    payload
        .inner_mut()
        .read_exact(&mut trailer)
        .map_err(|e| read_failure("checksum trailer", &e))?;
    let stored_crc = u32::from_le_bytes(trailer);
    if stored_crc != computed_crc {
        return Err(SparseError::Corrupt(format!(
            "GSPB payload checksum mismatch (stored {stored_crc:#010x}, \
             computed {computed_crc:#010x})"
        )));
    }
    CsrMatrix::try_new(rows, cols, indptr, indices, values).map(|m| {
        (
            m,
            SourceFingerprint {
                len: source_len,
                crc: source_crc,
            },
        )
    })
}

/// Reads a binary CSR cache from `path` (see [`read_bin`]).
///
/// # Errors
///
/// Any [`SparseError`] from validation, or a [`SparseError::ParseError`]
/// wrapping the I/O failure.
pub fn read_bin_file(path: impl AsRef<Path>) -> Result<CsrMatrix, SparseError> {
    read_bin_file_with_source(path).map(|(matrix, _)| matrix)
}

/// Reads a binary CSR cache from `path`, also returning the recorded
/// source byte length (see [`read_bin_with_source`]).
///
/// # Errors
///
/// As [`read_bin_file`].
pub fn read_bin_file_with_source(path: impl AsRef<Path>) -> Result<(CsrMatrix, u64), SparseError> {
    read_bin_file_with_fingerprint(path).map(|(matrix, fp)| (matrix, fp.len))
}

/// Reads a binary CSR cache from `path`, also returning the recorded
/// [`SourceFingerprint`] (see [`read_bin_with_fingerprint`]).
///
/// # Errors
///
/// As [`read_bin_file`].
pub fn read_bin_file_with_fingerprint(
    path: impl AsRef<Path>,
) -> Result<(CsrMatrix, SourceFingerprint), SparseError> {
    let file = std::fs::File::open(path.as_ref())
        .map_err(|e| SparseError::Io(format!("cannot open {}: {e}", path.as_ref().display())))?;
    read_bin_with_fingerprint(BufReader::new(file))
}

/// Moves a corrupt on-disk artifact out of the way by renaming it to
/// `<path>.corrupt` (the rename atomically replaces any previous
/// quarantine of the same file), so the rebuilt artifact can take its
/// place while the damaged bytes stay available for post-mortem. Falls
/// back to deleting the file when the rename itself fails. Returns the
/// quarantine path if the rename succeeded.
///
/// No separate delete of an old quarantine precedes the rename: with
/// several loaders racing on one corrupt file, such a delete could
/// remove the evidence a faster racer had just quarantined.
///
/// Best-effort by design: the caller is already on its degradation path
/// and must not fail because quarantining did.
pub fn quarantine_corrupt(path: &Path) -> Option<PathBuf> {
    let mut os = path.as_os_str().to_os_string();
    os.push(".corrupt");
    let dest = PathBuf::from(os);
    if std::fs::rename(path, &dest).is_ok() {
        Some(dest)
    } else {
        let _ = std::fs::remove_file(path);
        None
    }
}

/// Loads `mtx_path` through the binary cache: reads `<mtx_path>.gspb` if
/// present and still fresh, otherwise parses the Matrix Market text and
/// (re)writes the cache. A bench harness points this at a SuiteSparse
/// file and pays the text parse exactly once per version of the file.
///
/// Freshness is judged on three signals: the cache's mtime must not
/// predate the source's, the source's current byte length must match
/// the one recorded in the cache header, and — when both are recorded
/// and the cheaper signals pass — the source's CRC32 must match the
/// recorded [`SourceFingerprint`]. The checksum closes the former blind
/// spot of a same-length rewrite landing in the same filesystem
/// timestamp tick as the cache write, at the cost of one streaming read
/// of the source text (no parse) per cached load.
///
/// A cache that fails its integrity check ([`SparseError::Corrupt`]) is
/// quarantined — renamed to `<cache>.gspb.corrupt` (see
/// [`quarantine_corrupt`]) — and the load transparently falls back to
/// reparsing the text. A cache in an older format version is simply
/// reparsed and overwritten; a cache that cannot be *written* is not an
/// error either (the parse already succeeded; the next run parses
/// again).
///
/// # Errors
///
/// Any [`SparseError`] from parsing the Matrix Market text. Cache
/// problems never surface as errors while the source is available.
pub fn read_matrix_market_cached(mtx_path: impl AsRef<Path>) -> Result<CsrMatrix, SparseError> {
    let mtx_path = mtx_path.as_ref();
    let cache_path = {
        let mut os = mtx_path.as_os_str().to_os_string();
        os.push(".gspb");
        std::path::PathBuf::from(os)
    };
    let mtime = |path: &Path| std::fs::metadata(path).and_then(|m| m.modified()).ok();
    // Source length: the second freshness signal. `None` means the
    // source is missing (cache-only distribution) — trust the cache.
    let source_len = std::fs::metadata(mtx_path).map(|m| m.len()).ok();
    let cache_fresh = match (mtime(&cache_path), mtime(mtx_path)) {
        (Some(cache), Some(source)) => cache >= source,
        (Some(_), None) => true,
        (None, _) => false,
    };
    if cache_fresh {
        match read_bin_file_with_fingerprint(&cache_path) {
            Ok((matrix, recorded)) => {
                if source_matches(mtx_path, source_len, recorded) {
                    return Ok(matrix);
                }
                // Same-tick rewrite: stale, reparse below.
            }
            Err(SparseError::Corrupt(why)) => {
                // Damaged bytes: move them aside so the rewrite below
                // replaces them, and keep going from the source.
                match quarantine_corrupt(&cache_path) {
                    Some(dest) => eprintln!(
                        "warning: quarantined corrupt matrix cache {} -> {} ({why})",
                        cache_path.display(),
                        dest.display()
                    ),
                    None => eprintln!(
                        "warning: removed corrupt matrix cache {} ({why})",
                        cache_path.display()
                    ),
                }
            }
            // Older version, transient I/O failure, invalid CSR: the
            // reparse below overwrites the cache either way.
            Err(_) => {}
        }
    }
    let matrix = CsrMatrix::from(&read_matrix_market_file(mtx_path)?);
    let fingerprint = file_fingerprint(mtx_path).unwrap_or_default();
    let _ = write_bin_file_with_fingerprint(&matrix, fingerprint, &cache_path);
    Ok(matrix)
}

/// Whether the source at `mtx_path` still matches the fingerprint
/// `recorded` in its cache. Checks are ordered cheapest first; zero
/// fingerprint fields mean "not recorded" and pass (see
/// [`SourceFingerprint`]).
fn source_matches(mtx_path: &Path, source_len: Option<u64>, recorded: SourceFingerprint) -> bool {
    // Source missing = cache-only distribution: trust the cache.
    let Some(current_len) = source_len else {
        return true;
    };
    if recorded.len != 0 && recorded.len != current_len {
        return false;
    }
    if recorded.crc == 0 {
        return true;
    }
    match file_fingerprint(mtx_path) {
        Ok(current) => current.crc == recorded.crc,
        // Unreadable right now: freshness is unknowable; serve the
        // cache rather than fail a load that has a good artifact.
        Err(_) => true,
    }
}

type Lines<R> = std::iter::Enumerate<std::io::Lines<BufReader<R>>>;

fn next_line<R: Read>(lines: &mut Lines<R>) -> Result<(usize, String), SparseError> {
    match lines.next() {
        Some((i, Ok(line))) => Ok((i + 1, line)),
        Some((i, Err(e))) => Err(parse_err(i + 1, format!("io error: {e}"))),
        None => Err(parse_err(0, "unexpected end of file")),
    }
}

fn next_content_line<R: Read>(lines: &mut Lines<R>) -> Result<(usize, String), SparseError> {
    loop {
        let (idx, line) = next_line(lines)?;
        let trimmed = line.trim();
        if !trimmed.is_empty() && !trimmed.starts_with('%') {
            return Ok((idx, trimmed.to_string()));
        }
    }
}

fn parse_num(token: &str, line: usize, what: &str) -> Result<usize, SparseError> {
    token
        .parse::<usize>()
        .map_err(|e| parse_err(line, format!("bad {what} '{token}': {e}")))
}

fn parse_err(line: usize, message: impl Into<String>) -> SparseError {
    SparseError::ParseError {
        line,
        message: message.into(),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // tests may unwrap; the gate is for load paths
mod tests {
    use super::*;

    #[test]
    fn parses_general_real() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    % comment\n\
                    3 3 2\n\
                    1 2 1.5\n\
                    3 1 -2\n";
        let m = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!((m.rows(), m.cols(), m.nnz()), (3, 3, 2));
        let entries: Vec<_> = m.iter().collect();
        assert!(entries.contains(&(0, 1, 1.5)));
        assert!(entries.contains(&(2, 0, -2.0)));
    }

    #[test]
    fn parses_symmetric_and_mirrors() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
                    2 2 2\n\
                    1 1 5\n\
                    2 1 3\n";
        let m = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(m.nnz(), 3); // diagonal not mirrored
        let entries: Vec<_> = m.iter().collect();
        assert!(entries.contains(&(0, 1, 3.0)));
        assert!(entries.contains(&(1, 0, 3.0)));
    }

    #[test]
    fn parses_skew_symmetric_with_negation() {
        let text = "%%MatrixMarket matrix coordinate real skew-symmetric\n\
                    2 2 1\n\
                    2 1 4\n";
        let m = read_matrix_market(text.as_bytes()).unwrap();
        let entries: Vec<_> = m.iter().collect();
        assert!(entries.contains(&(1, 0, 4.0)));
        assert!(entries.contains(&(0, 1, -4.0)));
    }

    #[test]
    fn parses_pattern_as_ones() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n\
                    2 2 2\n\
                    1 1\n\
                    2 2\n";
        let m = read_matrix_market(text.as_bytes()).unwrap();
        assert!(m.iter().all(|(_, _, v)| v == 1.0));
    }

    #[test]
    fn rejects_array_storage() {
        let text = "%%MatrixMarket matrix array real general\n";
        let err = read_matrix_market(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("coordinate"));
    }

    #[test]
    fn rejects_zero_based_indices() {
        let text = "%%MatrixMarket matrix coordinate real general\n1 1 1\n0 1 2.0\n";
        let err = read_matrix_market(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("1-based"));
    }

    #[test]
    fn rejects_truncated_file() {
        let text = "%%MatrixMarket matrix coordinate real general\n3 3 5\n1 1 1.0\n";
        let err = read_matrix_market(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("end of file"));
    }

    #[test]
    fn rejects_bad_value() {
        let text = "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 abc\n";
        let err = read_matrix_market(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("bad value"));
    }

    #[test]
    fn write_read_round_trip() {
        let m = CooMatrix::from_triplets(3, 4, vec![(0, 0, 1.25), (2, 3, -0.5)]).unwrap();
        let mut buf = Vec::new();
        write_matrix_market(&m, &mut buf).unwrap();
        let back = read_matrix_market(buf.as_slice()).unwrap();
        assert_eq!((back.rows(), back.cols(), back.nnz()), (3, 4, 2));
        let entries: Vec<_> = back.iter().collect();
        assert!(entries.contains(&(0, 0, 1.25)));
        assert!(entries.contains(&(2, 3, -0.5)));
    }

    #[test]
    fn header_is_case_insensitive() {
        let text = "%%matrixmarket MATRIX Coordinate Real General\n1 1 1\n1 1 2.0\n";
        let m = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn binary_cache_round_trips_exactly() {
        let m = CsrMatrix::from(&crate::gen::power_law(40, 50, 300, 1.8, 7));
        let mut buf = Vec::new();
        write_bin(&m, &mut buf).unwrap();
        let back = read_bin(buf.as_slice()).unwrap();
        assert_eq!(back, m, "raw CSR arrays must round-trip bit for bit");
    }

    #[test]
    fn binary_cache_rejects_garbage_and_truncation() {
        assert!(read_bin(&b"NOPE"[..]).is_err());
        let m = CsrMatrix::identity(4);
        let mut buf = Vec::new();
        write_bin(&m, &mut buf).unwrap();
        for cut in [2usize, 7, buf.len() / 2, buf.len() - 1] {
            assert!(read_bin(&buf[..cut]).is_err(), "truncation at {cut}");
        }
        // A corrupt column index must fail the checksum, not load.
        // Layout: 4-byte trailer CRC at the end, preceded by the values
        // (nnz × f32) and the indices (nnz × u32).
        let col_region = buf.len() - 4 - 4 * 4 - 4 * 4; // first of 4 indices
        buf[col_region..col_region + 4].copy_from_slice(&99u32.to_le_bytes());
        let err = read_bin(buf.as_slice()).unwrap_err();
        assert!(
            matches!(err, SparseError::Corrupt(_)),
            "expected Corrupt, got {err:?}"
        );
    }

    #[test]
    fn binary_cache_detects_every_single_byte_corruption() {
        // Whole-stream sweep: no single damaged byte may load, and any
        // damage past the version field must be classified as Corrupt
        // (magic/version damage is a format error instead).
        let m = CsrMatrix::from(&crate::gen::power_law(6, 5, 12, 1.5, 3));
        let mut clean = Vec::new();
        write_bin(&m, &mut clean).unwrap();
        for byte in 0..clean.len() {
            let mut damaged = clean.clone();
            damaged[byte] ^= 0x10;
            let err = read_bin(damaged.as_slice())
                .expect_err(&format!("byte {byte} corruption must not load"));
            if byte >= 8 {
                assert!(
                    matches!(err, SparseError::Corrupt(_)),
                    "byte {byte}: expected Corrupt, got {err:?}"
                );
            }
        }
    }

    #[test]
    fn binary_cache_rejects_absurd_header_sizes() {
        // A forged header must surface as an error, not an arithmetic
        // overflow or a terabyte allocation attempt — even when the
        // payload-length prefix is forged consistently with the shape.
        for rows in [u64::MAX, 1u64 << 40] {
            let mut buf = Vec::new();
            buf.extend_from_slice(b"GSPB");
            buf.extend_from_slice(&BIN_VERSION.to_le_bytes());
            let declared = bin_payload_len(rows, 0).unwrap_or(u64::MAX);
            buf.extend_from_slice(&declared.to_le_bytes());
            buf.extend_from_slice(&0u64.to_le_bytes()); // source length
            buf.extend_from_slice(&0u32.to_le_bytes()); // source crc
            buf.extend_from_slice(&rows.to_le_bytes()); // rows
            buf.extend_from_slice(&4u64.to_le_bytes()); // cols
            buf.extend_from_slice(&0u64.to_le_bytes()); // nnz
            let err = read_bin(buf.as_slice()).unwrap_err();
            assert!(
                matches!(err, SparseError::Corrupt(_)),
                "rows {rows}: unexpected error {err}"
            );
        }
    }

    #[test]
    fn binary_cache_records_the_source_length() {
        let m = CsrMatrix::identity(3);
        let mut buf = Vec::new();
        write_bin_with_source(&m, 12345, &mut buf).unwrap();
        let (back, source_len) = read_bin_with_source(buf.as_slice()).unwrap();
        assert_eq!(back, m);
        assert_eq!(source_len, 12345);
        // The plain writer records 0 ("unknown").
        let mut buf = Vec::new();
        write_bin(&m, &mut buf).unwrap();
        assert_eq!(read_bin_with_source(buf.as_slice()).unwrap().1, 0);
    }

    #[test]
    fn binary_cache_rejects_version_one_streams() {
        // A pre-source-length cache must be rejected (the cached loader
        // then reparses and rewrites), never misread with shifted fields.
        let m = CsrMatrix::identity(2);
        let mut buf = Vec::new();
        write_bin(&m, &mut buf).unwrap();
        buf[4..8].copy_from_slice(&1u32.to_le_bytes());
        let err = read_bin(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("unsupported binary version 1"));
    }

    #[test]
    fn matrix_market_cache_writes_and_reuses_the_binary() {
        let dir = std::env::temp_dir().join(format!(
            "gust-io-cache-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let mtx = dir.join("tiny.mtx");
        let coo = CooMatrix::from_triplets(3, 3, vec![(0, 0, 1.5), (2, 1, -2.0)]).unwrap();
        let mut text = Vec::new();
        write_matrix_market(&coo, &mut text).unwrap();
        std::fs::write(&mtx, &text).unwrap();

        let first = read_matrix_market_cached(&mtx).unwrap();
        assert_eq!(first, CsrMatrix::from(&coo));
        let cache = dir.join("tiny.mtx.gspb");
        assert!(cache.is_file(), "first load must write the cache");

        // Second load comes from the cache: delete the text to prove it
        // (a cache-only distribution stays loadable).
        std::fs::remove_file(&mtx).unwrap();
        let second = read_matrix_market_cached(&mtx).unwrap();
        assert_eq!(second, first);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn binary_cache_records_the_fingerprint() {
        let m = CsrMatrix::identity(3);
        let fp = SourceFingerprint {
            len: 12345,
            crc: 0xDEAD_BEEF,
        };
        let mut buf = Vec::new();
        write_bin_with_fingerprint(&m, fp, &mut buf).unwrap();
        let (back, recorded) = read_bin_with_fingerprint(buf.as_slice()).unwrap();
        assert_eq!(back, m);
        assert_eq!(recorded, fp);
    }

    #[test]
    fn concurrent_writers_of_one_cache_path_never_tear_it() {
        // Regression: the atomic writer used a *fixed* `.tmp` sibling,
        // so two concurrent writers of the same cache path truncated
        // each other's in-progress temp file and could rename a partial
        // artifact into place. With per-call unique temp names, every
        // round must leave a fully readable cache holding one of the
        // two matrices, never torn bytes.
        let dir = std::env::temp_dir().join(format!(
            "gust-io-race-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("race.gspb");
        let a = CsrMatrix::from(&crate::gen::uniform(64, 64, 900, 1));
        let b = CsrMatrix::from(&crate::gen::uniform(64, 64, 900, 2));

        for round in 0..40 {
            std::thread::scope(|scope| {
                for m in [&a, &b] {
                    scope.spawn(|| {
                        write_bin_file_with_fingerprint(m, SourceFingerprint::default(), &path)
                            .expect("atomic write must succeed");
                    });
                }
            });
            let loaded = read_bin_file(&path)
                .unwrap_or_else(|e| panic!("round {round}: torn cache after race: {e}"));
            assert!(
                loaded == a || loaded == b,
                "round {round}: cache holds neither writer's matrix"
            );
        }
        // No temp litter: every writer either renamed or removed its own.
        let stray: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|name| name.ends_with(".tmp"))
            .collect();
        assert!(stray.is_empty(), "temp files leaked: {stray:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unique_tmp_siblings_never_collide() {
        let path = Path::new("/tmp/gust-some-cache.gspb");
        let first = unique_tmp_sibling(path);
        let second = unique_tmp_sibling(path);
        assert_ne!(first, second, "two calls must yield distinct temp names");
        for tmp in [&first, &second] {
            let name = tmp.file_name().unwrap().to_string_lossy().into_owned();
            assert!(name.starts_with("gust-some-cache.gspb."));
            assert!(name.ends_with(".tmp"));
        }
    }

    #[test]
    fn corrupt_cache_is_quarantined_and_rebuilt_from_source() {
        let dir = std::env::temp_dir().join(format!(
            "gust-io-quarantine-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let mtx = dir.join("q.mtx");
        let coo = CooMatrix::from_triplets(3, 3, vec![(0, 0, 1.5), (2, 1, -2.0)]).unwrap();
        let mut text = Vec::new();
        write_matrix_market(&coo, &mut text).unwrap();
        std::fs::write(&mtx, &text).unwrap();
        let expected = CsrMatrix::from(&coo);

        assert_eq!(read_matrix_market_cached(&mtx).unwrap(), expected);
        let cache = dir.join("q.mtx.gspb");

        // Flip one payload byte in the cache; the next load must detect
        // the damage, quarantine the file, and still return the correct
        // matrix by reparsing the text.
        let mut bytes = std::fs::read(&cache).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&cache, &bytes).unwrap();

        assert_eq!(
            read_matrix_market_cached(&mtx).unwrap(),
            expected,
            "a corrupt cache must fall back to the source"
        );
        let quarantined = dir.join("q.mtx.gspb.corrupt");
        assert!(quarantined.is_file(), "corrupt cache must be quarantined");
        assert_eq!(
            std::fs::read(&quarantined).unwrap(),
            bytes,
            "quarantine must preserve the damaged bytes"
        );
        // The fallback also rewrote a healthy cache in place.
        assert!(read_bin_file(&cache).is_ok(), "cache must be rebuilt");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn matrix_market_cache_detects_same_tick_same_length_rewrites() {
        let dir = std::env::temp_dir().join(format!(
            "gust-io-samelen-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let mtx = dir.join("m.mtx");
        let write_mtx = |coo: &CooMatrix| {
            let mut text = Vec::new();
            write_matrix_market(coo, &mut text).unwrap();
            std::fs::write(&mtx, &text).unwrap();
        };
        // Two sources with byte-identical lengths but different values:
        // the length signal cannot tell them apart, only the checksum.
        let old = CooMatrix::from_triplets(2, 2, vec![(0, 0, 1.5)]).unwrap();
        let new = CooMatrix::from_triplets(2, 2, vec![(0, 0, 2.5)]).unwrap();
        write_mtx(&old);
        assert_eq!(
            read_matrix_market_cached(&mtx).unwrap(),
            CsrMatrix::from(&old)
        );
        let cache = dir.join("m.mtx.gspb");

        write_mtx(&new);
        // Force the worst case: the cache's mtime says "fresh" even
        // though the source just changed.
        let future = std::time::SystemTime::now() + std::time::Duration::from_secs(3600);
        std::fs::File::options()
            .append(true)
            .open(&cache)
            .unwrap()
            .set_modified(future)
            .unwrap();
        assert_eq!(
            read_matrix_market_cached(&mtx).unwrap(),
            CsrMatrix::from(&new),
            "a same-tick same-length rewrite must be caught by the source checksum"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn matrix_market_cache_detects_same_tick_rewrites_by_length() {
        let dir = std::env::temp_dir().join(format!(
            "gust-io-tick-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let mtx = dir.join("m.mtx");
        let write_mtx = |coo: &CooMatrix| {
            let mut text = Vec::new();
            write_matrix_market(coo, &mut text).unwrap();
            std::fs::write(&mtx, &text).unwrap();
        };
        let old = CooMatrix::from_triplets(2, 2, vec![(0, 0, 1.0)]).unwrap();
        write_mtx(&old);
        assert_eq!(
            read_matrix_market_cached(&mtx).unwrap(),
            CsrMatrix::from(&old)
        );
        let cache = dir.join("m.mtx.gspb");

        // Rewrite the source with different, longer contents, then force
        // the cache's mtime *ahead* of the source — the worst case of a
        // rewrite landing in the same filesystem timestamp tick as the
        // cache write. The mtime test alone would serve the stale cache;
        // the recorded source length must catch it.
        let new = CooMatrix::from_triplets(2, 2, vec![(0, 0, 2.5), (1, 1, 7.5)]).unwrap();
        write_mtx(&new);
        let future = std::time::SystemTime::now() + std::time::Duration::from_secs(3600);
        std::fs::File::options()
            .append(true)
            .open(&cache)
            .unwrap()
            .set_modified(future)
            .unwrap();
        assert_eq!(
            read_matrix_market_cached(&mtx).unwrap(),
            CsrMatrix::from(&new),
            "a same-tick rewrite with a different length must not be served stale"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn matrix_market_cache_invalidates_on_newer_source() {
        let dir = std::env::temp_dir().join(format!(
            "gust-io-stale-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let mtx = dir.join("m.mtx");
        let write_mtx = |coo: &CooMatrix| {
            let mut text = Vec::new();
            write_matrix_market(coo, &mut text).unwrap();
            std::fs::write(&mtx, &text).unwrap();
        };
        let old = CooMatrix::from_triplets(2, 2, vec![(0, 0, 1.0)]).unwrap();
        write_mtx(&old);
        assert_eq!(
            read_matrix_market_cached(&mtx).unwrap(),
            CsrMatrix::from(&old)
        );

        // Rewrite the source with different contents and a newer mtime:
        // the stale cache must NOT be served. (The sleep clears coarse
        // filesystem timestamp granularity.)
        std::thread::sleep(std::time::Duration::from_millis(1100));
        let new = CooMatrix::from_triplets(2, 2, vec![(1, 1, 7.5)]).unwrap();
        write_mtx(&new);
        assert_eq!(
            read_matrix_market_cached(&mtx).unwrap(),
            CsrMatrix::from(&new)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
