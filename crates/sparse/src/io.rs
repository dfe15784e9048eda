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
//! CSR arrays, so [`read_matrix_market_cached`] parses a file once and
//! thereafter loads it at I/O speed.
//!
//! # One container codec
//!
//! Both on-disk caches, the `GSPB` matrix cache here and the `GUST`
//! schedule container (`gust::schedule::serialize`), use the checksummed
//! envelope of [`write_envelope`] / [`read_envelope`], are written
//! through [`write_file_atomic`], and are moved aside by
//! [`quarantine_corrupt`] when a load finds them damaged.

// Production loaders must surface failures as typed errors, never
// `unwrap` panics: this module is part of the fault-tolerant loading
// path (see the README's Robustness section).
#![deny(clippy::unwrap_used)]

use crate::checksum::{crc32, Crc32};
use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::error::SparseError;
use crate::faults;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
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

/// Why [`read_envelope`] rejected a stream. Each codec maps these onto
/// its own error type.
#[derive(Debug)]
pub enum EnvelopeError {
    /// The stream does not start with the expected magic: it is not this
    /// kind of container at all.
    BadMagic,
    /// The expected magic with an unsupported version.
    Version(u32),
    /// The stream was a container once and has been damaged: it is
    /// truncated, or its payload does not match the trailer checksum.
    Corrupt(String),
    /// A live read failure, injected faults included.
    Io(std::io::Error),
}

/// Writes `payload` in the checksummed container envelope that the
/// `GSPB` matrix cache and the `GUST` schedule container share
/// (little-endian):
///
/// ```text
/// magic | version u32 | payload_len u64 | payload | crc32(payload) u32
/// ```
///
/// `payload_len` and the CRC32 trailer cover exactly the payload, so any
/// truncation or bit flip after the version field is caught by
/// [`read_envelope`]. `site` is the fault-injection site the write
/// crosses (see [`faults::sites`]).
///
/// # Errors
///
/// Propagates I/O errors from the writer, and injected faults at `site`.
pub fn write_envelope<W: Write>(
    magic: &[u8; 4],
    version: u32,
    site: &str,
    payload: &[u8],
    mut writer: W,
) -> std::io::Result<()> {
    faults::check_io(site)?;
    writer.write_all(magic)?;
    writer.write_all(&version.to_le_bytes())?;
    writer.write_all(&(payload.len() as u64).to_le_bytes())?;
    writer.write_all(payload)?;
    writer.write_all(&crc32(payload).to_le_bytes())
}

/// Reads one envelope written by [`write_envelope`] and returns its
/// payload. The length prefix and the CRC32 over the whole payload are
/// both checked before the caller parses any byte. The payload is read
/// in bounded 16 MiB chunks, so a forged length fails at the stream's
/// real end instead of attempting one giant allocation up front.
///
/// # Errors
///
/// [`EnvelopeError::BadMagic`] / [`EnvelopeError::Version`] when the
/// stream is not a `magic`/`version` container,
/// [`EnvelopeError::Corrupt`] on truncation or a checksum mismatch, and
/// [`EnvelopeError::Io`] on a live read failure or an injected fault at
/// `site`.
pub fn read_envelope<R: Read>(
    magic: &[u8; 4],
    version: u32,
    site: &str,
    mut reader: R,
) -> Result<Vec<u8>, EnvelopeError> {
    fn read_part<R: Read>(reader: &mut R, buf: &mut [u8], what: &str) -> Result<(), EnvelopeError> {
        reader.read_exact(buf).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                EnvelopeError::Corrupt(format!("truncated {what}"))
            } else {
                EnvelopeError::Io(e)
            }
        })
    }
    const CHUNK: u64 = 16 << 20;

    faults::check_io(site).map_err(EnvelopeError::Io)?;
    let mut word = [0u8; 4];
    read_part(&mut reader, &mut word, "container magic")?;
    if &word != magic {
        return Err(EnvelopeError::BadMagic);
    }
    read_part(&mut reader, &mut word, "container version")?;
    let found = u32::from_le_bytes(word);
    if found != version {
        return Err(EnvelopeError::Version(found));
    }
    let mut qword = [0u8; 8];
    read_part(&mut reader, &mut qword, "payload length")?;
    let mut remaining = u64::from_le_bytes(qword);
    let mut payload = Vec::new();
    while remaining > 0 {
        let take = usize::try_from(remaining.min(CHUNK))
            .map_err(|_| EnvelopeError::Corrupt("payload exceeds address space".into()))?;
        let start = payload.len();
        payload.resize(start + take, 0u8);
        read_part(&mut reader, &mut payload[start..], "payload")?;
        remaining -= take as u64;
    }
    read_part(&mut reader, &mut word, "checksum trailer")?;
    let stored = u32::from_le_bytes(word);
    let computed = crc32(&payload);
    if stored != computed {
        return Err(EnvelopeError::Corrupt(format!(
            "{} payload checksum mismatch (stored {stored:#010x}, computed {computed:#010x})",
            String::from_utf8_lossy(magic)
        )));
    }
    Ok(payload)
}

/// Writes `path` atomically: `write` fills a uniquely named temporary
/// sibling, `<path>.<pid>.<seq>.tmp`, which is renamed over `path` only
/// once fully flushed. A crash, an I/O failure mid-write or a racing
/// writer therefore never leaves a partial artifact for a later load to
/// trip over.
///
/// # Errors
///
/// Propagates I/O errors from `write`, the flush and the rename; on error
/// the temporary file is removed and `path` is untouched.
pub fn write_file_atomic(
    path: impl AsRef<Path>,
    write: impl FnOnce(&mut BufWriter<std::fs::File>) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let path = path.as_ref();
    let tmp = unique_tmp_sibling(path);
    let result = (|| {
        let mut writer = BufWriter::new(std::fs::File::create(&tmp)?);
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

/// Builds a collision-free temporary sibling name for an atomic write
/// to `path`: `<path>.<pid>.<seq>.tmp`. The pid disambiguates separate
/// processes writing the same destination; the process-wide counter
/// disambiguates concurrent writers (and repeated writes) within one
/// process. A fixed `.tmp` sibling let two concurrent writers of the
/// same cache path truncate each other's in-progress temp file and
/// rename a partial artifact into place.
fn unique_tmp_sibling(path: &Path) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let mut os = path.as_os_str().to_os_string();
    os.push(format!(".{}.{}.tmp", std::process::id(), seq));
    PathBuf::from(os)
}

/// Moves the corrupt cache at `path` out of the way and warns once on
/// stderr, naming `what` it held and `why` it was rejected. The file is
/// renamed to `<path>.corrupt` (the rename atomically replaces any
/// previous quarantine of the same file), so a rebuilt artifact can take
/// its place while the damaged bytes stay available for post-mortem;
/// when the rename itself fails, the file is deleted instead.
///
/// No separate delete of an old quarantine precedes the rename: with
/// several loaders racing on one corrupt file, such a delete could
/// remove the evidence a faster racer had just quarantined.
///
/// Best-effort by design: the caller is already on its degradation path
/// and must not fail because quarantining did.
pub fn quarantine_corrupt(path: &Path, what: &str, why: impl std::fmt::Display) {
    let mut os = path.as_os_str().to_os_string();
    os.push(".corrupt");
    let dest = PathBuf::from(os);
    if std::fs::rename(path, &dest).is_ok() {
        eprintln!(
            "warning: quarantined corrupt {what} {} -> {} ({why})",
            path.display(),
            dest.display()
        );
    } else {
        let _ = std::fs::remove_file(path);
        eprintln!("warning: removed corrupt {what} {} ({why})", path.display());
    }
}

/// Binary CSR cache magic.
const BIN_MAGIC: &[u8; 4] = b"GSPB";
/// Binary CSR cache format version.
///
/// * v2 added the source byte length to the header.
/// * v3 made the format corruption-safe: the body moved into the
///   checksummed envelope of [`write_envelope`], and the header records a
///   CRC32 fingerprint of the source file besides its length (see
///   [`SourceFingerprint`]).
///
/// Older versions are rejected with a [`SparseError::ParseError`], which
/// for the cache use case simply forces one reparse-and-rewrite.
const BIN_VERSION: u32 = 3;
/// Fixed `GSPB` payload header: source_len u64, source_crc u32, then
/// rows, cols and nnz as u64.
const BIN_HEADER: usize = 8 + 4 + 8 + 8 + 8;

/// Fingerprint of the source file a cached matrix was parsed from:
/// its byte length and the CRC32 of its contents.
/// [`read_matrix_market_cached`] compares both against the current
/// source to decide freshness, which closes the classic mtime blind spot
/// (a rewrite landing in the same filesystem timestamp tick as the cache
/// write). Zero fields mean "not recorded" and skip that comparison; the
/// all-zero [`Default`] records nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SourceFingerprint {
    /// Source byte length (0 = not recorded; a parseable Matrix Market
    /// file is never empty).
    pub len: u64,
    /// CRC32 of the source bytes (0 = not recorded).
    pub crc: u32,
}

/// Streams `path` once and returns its [`SourceFingerprint`].
fn file_fingerprint(path: &Path) -> std::io::Result<SourceFingerprint> {
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
    let indptr = rows.checked_add(1)?.checked_mul(8)?;
    let entries = nnz.checked_mul(8)?; // index u32 + value f32 per entry
    (BIN_HEADER as u64)
        .checked_add(indptr)?
        .checked_add(entries)
}

/// Writes `matrix` in the binary CSR cache format, recording the
/// [`SourceFingerprint`] of the file it was parsed from
/// ([`SourceFingerprint::default`] records none). The payload sits in
/// the checksummed envelope of [`write_envelope`] (little-endian):
///
/// ```text
/// magic "GSPB" | version u32 | payload_len u64 | payload | crc32 u32
/// payload = source_len u64 | source_crc u32 | rows u64 | cols u64
///         | nnz u64 | indptr: (rows + 1) × u64 | indices: nnz × u32
///         | values: nnz × f32
/// ```
///
/// # Errors
///
/// Propagates I/O errors from the writer (including injected
/// [`faults::sites::IO_WRITE`] faults when fault injection is active).
pub fn write_bin<W: Write>(
    matrix: &CsrMatrix,
    source: SourceFingerprint,
    writer: W,
) -> std::io::Result<()> {
    let (indptr, indices, values) = matrix.raw_parts();
    let payload_len = bin_payload_len(matrix.rows() as u64, matrix.nnz() as u64)
        .and_then(|n| usize::try_from(n).ok())
        .ok_or_else(|| std::io::Error::other("matrix too large for the GSPB format"))?;
    let mut payload = Vec::with_capacity(payload_len);
    payload.extend_from_slice(&source.len.to_le_bytes());
    payload.extend_from_slice(&source.crc.to_le_bytes());
    for dim in [matrix.rows(), matrix.cols(), matrix.nnz()] {
        payload.extend_from_slice(&(dim as u64).to_le_bytes());
    }
    for &p in indptr {
        payload.extend_from_slice(&(p as u64).to_le_bytes());
    }
    for &c in indices {
        payload.extend_from_slice(&c.to_le_bytes());
    }
    for &v in values {
        payload.extend_from_slice(&v.to_le_bytes());
    }
    debug_assert_eq!(payload.len(), payload_len);
    write_envelope(
        BIN_MAGIC,
        BIN_VERSION,
        faults::sites::IO_WRITE,
        &payload,
        writer,
    )
}

/// Writes the binary CSR cache to `path` atomically (see [`write_bin`]
/// and [`write_file_atomic`]).
///
/// # Errors
///
/// Propagates I/O errors; on error `path` is untouched.
pub fn write_bin_file(
    matrix: &CsrMatrix,
    source: SourceFingerprint,
    path: impl AsRef<Path>,
) -> std::io::Result<()> {
    write_file_atomic(path, |w| write_bin(matrix, source, w))
}

/// Reads a matrix previously written with [`write_bin`], with the
/// [`SourceFingerprint`] it recorded, re-validating every CSR invariant
/// (the cache may come from an untrusted disk).
///
/// # Errors
///
/// [`SparseError::ParseError`] on a bad magic or an unsupported version
/// (the stream is not a v3 GSPB artifact at all),
/// [`SparseError::Corrupt`] on truncation, a CRC mismatch or a payload
/// length that contradicts the declared shape (it was one, and has been
/// damaged), [`SparseError::Io`] on a live read failure (including
/// injected [`faults::sites::IO_READ`] faults), and
/// [`SparseError::InvalidStructure`] / [`SparseError::IndexOutOfBounds`]
/// if the (intact) arrays do not form a valid CSR matrix.
pub fn read_bin<R: Read>(reader: R) -> Result<(CsrMatrix, SourceFingerprint), SparseError> {
    let payload = read_envelope(BIN_MAGIC, BIN_VERSION, faults::sites::IO_READ, reader).map_err(
        |e| match e {
            EnvelopeError::BadMagic => parse_err(0, "not a GSPB binary matrix stream"),
            EnvelopeError::Version(v) => parse_err(0, format!("unsupported binary version {v}")),
            EnvelopeError::Corrupt(why) => SparseError::Corrupt(why),
            EnvelopeError::Io(e) => SparseError::from(e),
        },
    )?;
    let Some((header, arrays)) = payload.split_first_chunk::<BIN_HEADER>() else {
        return Err(SparseError::Corrupt(format!(
            "payload of {} bytes is shorter than the GSPB header",
            payload.len()
        )));
    };
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
    let source = SourceFingerprint {
        len: u64::from_le_bytes(word8(&header[0..8])),
        crc: u32::from_le_bytes(word4(&header[8..12])),
    };
    let rows64 = u64::from_le_bytes(word8(&header[12..20]));
    let cols64 = u64::from_le_bytes(word8(&header[20..28]));
    let nnz64 = u64::from_le_bytes(word8(&header[28..36]));

    // The shape fields and the payload length are redundant: they must
    // agree exactly, or some of them are forged. Agreement also bounds
    // every array split below by the bytes actually received.
    let expected_payload = bin_payload_len(rows64, nnz64)
        .ok_or_else(|| SparseError::Corrupt(format!("shape {rows64}x{cols64} overflows")))?;
    if expected_payload != payload.len() as u64 {
        return Err(SparseError::Corrupt(format!(
            "payload length {} does not match the declared shape \
             (rows {rows64}, nnz {nnz64} require {expected_payload})",
            payload.len()
        )));
    }
    let to_usize = |v: u64, what: &str| -> Result<usize, SparseError> {
        usize::try_from(v).map_err(|_| SparseError::Corrupt(format!("{what} {v} does not fit")))
    };
    let rows = to_usize(rows64, "row count")?;
    let cols = to_usize(cols64, "column count")?;
    let nnz = to_usize(nnz64, "nnz")?;

    // `chunks_exact(N)` yields exactly-N-byte slices, so the word copies
    // cannot come up short.
    let (indptr_bytes, entries) = arrays.split_at((rows + 1) * 8);
    let (indices_bytes, values_bytes) = entries.split_at(nnz * 4);
    let indptr: Vec<usize> = indptr_bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(word8(c)) as usize)
        .collect();
    let indices: Vec<u32> = indices_bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(word4(c)))
        .collect();
    let values: Vec<f32> = values_bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(word4(c)))
        .collect();
    CsrMatrix::try_new(rows, cols, indptr, indices, values).map(|m| (m, source))
}

/// Reads a binary CSR cache from `path` (see [`read_bin`]).
///
/// # Errors
///
/// As [`read_bin`]; a file that cannot be opened is [`SparseError::Io`].
pub fn read_bin_file(
    path: impl AsRef<Path>,
) -> Result<(CsrMatrix, SourceFingerprint), SparseError> {
    let file = std::fs::File::open(path.as_ref())
        .map_err(|e| SparseError::Io(format!("cannot open {}: {e}", path.as_ref().display())))?;
    read_bin(BufReader::new(file))
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
/// Any [`SparseError`] from parsing the Matrix Market text, and
/// [`SparseError::TooLarge`] when its declared shape cannot be allocated
/// as CSR. Cache problems never surface as errors while the source is
/// available.
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
        match read_bin_file(&cache_path) {
            Ok((matrix, recorded)) => {
                if source_matches(mtx_path, source_len, recorded) {
                    return Ok(matrix);
                }
                // Same-tick rewrite: stale, reparse below.
            }
            Err(SparseError::Corrupt(why)) => {
                // Damaged bytes: move them aside so the rewrite below
                // replaces them, and keep going from the source.
                quarantine_corrupt(&cache_path, "matrix cache", why);
            }
            // Older version, transient I/O failure, invalid CSR: the
            // reparse below overwrites the cache either way.
            Err(_) => {}
        }
    }
    let matrix = CsrMatrix::try_from_coo(&read_matrix_market_file(mtx_path)?)?;
    let fingerprint = file_fingerprint(mtx_path).unwrap_or_default();
    let _ = write_bin_file(&matrix, fingerprint, &cache_path);
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
        write_bin(&m, SourceFingerprint::default(), &mut buf).unwrap();
        let (back, _) = read_bin(buf.as_slice()).unwrap();
        assert_eq!(back, m, "raw CSR arrays must round-trip bit for bit");
    }

    #[test]
    fn binary_cache_rejects_garbage_and_truncation() {
        assert!(read_bin(&b"NOPE"[..]).is_err());
        let m = CsrMatrix::identity(4);
        let mut buf = Vec::new();
        write_bin(&m, SourceFingerprint::default(), &mut buf).unwrap();
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
        write_bin(&m, SourceFingerprint::default(), &mut clean).unwrap();
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
        let source = SourceFingerprint { len: 12345, crc: 0 };
        write_bin(&m, source, &mut buf).unwrap();
        let (back, recorded) = read_bin(buf.as_slice()).unwrap();
        assert_eq!(back, m);
        assert_eq!(recorded.len, 12345);
        // The plain writer records 0 ("unknown").
        let mut buf = Vec::new();
        write_bin(&m, SourceFingerprint::default(), &mut buf).unwrap();
        assert_eq!(read_bin(buf.as_slice()).unwrap().1.len, 0);
    }

    #[test]
    fn binary_cache_rejects_version_one_streams() {
        // A pre-source-length cache must be rejected (the cached loader
        // then reparses and rewrites), never misread with shifted fields.
        let m = CsrMatrix::identity(2);
        let mut buf = Vec::new();
        write_bin(&m, SourceFingerprint::default(), &mut buf).unwrap();
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
        write_bin(&m, fp, &mut buf).unwrap();
        let (back, recorded) = read_bin(buf.as_slice()).unwrap();
        assert_eq!(back, m);
        assert_eq!(recorded, fp);
    }

    /// CRC32 of every byte but the trailer of [`gspb_bytes_are_pinned`]'s
    /// stream (4 576 bytes at version 3). The trailer stays out: for
    /// CRC-32, `crc(M ‖ crc(M))` is one constant for every message of a
    /// given length, so a whole-stream CRC would pin only the length.
    const PINNED_GSPB: u32 = 0x0385_5458;

    /// Pins the `GSPB` bytes of one seeded matrix. A change to what
    /// `write_bin` emits must come with a `BIN_VERSION` bump (and a new
    /// constant here), never silently.
    #[test]
    fn gspb_bytes_are_pinned() {
        let m = CsrMatrix::from(&crate::gen::power_law(64, 64, 500, 1.9, 7));
        let source = SourceFingerprint {
            len: 12_345,
            crc: 0xDEAD_BEEF,
        };
        let mut buf = Vec::new();
        write_bin(&m, source, &mut buf).unwrap();
        assert_eq!(BIN_VERSION, 3);
        assert_eq!(buf.len(), 4_576);
        let crc = crc32(&buf[..buf.len() - 4]);
        assert_eq!(crc, PINNED_GSPB, "GSPB bytes changed: {crc:#010x}");
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
                        write_bin_file(m, SourceFingerprint::default(), &path)
                            .expect("atomic write must succeed");
                    });
                }
            });
            let (loaded, _) = read_bin_file(&path)
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
