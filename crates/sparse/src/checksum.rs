//! CRC32 (IEEE 802.3, the zlib/gzip polynomial) for the on-disk formats.
//!
//! The `GSPB` matrix cache and the `GUST` schedule container append a
//! CRC32 of their payload so a bit flip on disk — a
//! failing drive, a torn write, a truncated copy — surfaces as a
//! *corruption* error the loaders can quarantine and fall back from,
//! instead of silently feeding wrong numbers (or a panic) into the
//! engine. No external crate: the environment is offline, and the
//! table-driven implementation below is ~20 lines.

/// Streaming CRC32 state.
///
/// # Example
///
/// ```
/// use gust_sparse::checksum::Crc32;
///
/// let mut crc = Crc32::new();
/// crc.update(b"123456789");
/// assert_eq!(crc.finish(), 0xCBF4_3926); // the standard check value
/// ```
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// 256-entry lookup table, built once per process.
fn table() -> &'static [u32; 256] {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
            *entry = crc;
        }
        table
    })
}

impl Crc32 {
    /// Fresh state (equivalent to `crc32(0, [])`).
    #[must_use]
    pub fn new() -> Self {
        Self { state: !0 }
    }

    /// Folds `bytes` into the running checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let table = table();
        for &b in bytes {
            self.state = (self.state >> 8) ^ table[((self.state ^ u32::from(b)) & 0xFF) as usize];
        }
    }

    /// The checksum of everything fed so far. Does not consume the state;
    /// further [`Crc32::update`] calls continue from here.
    #[must_use]
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot CRC32 of a byte slice.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

/// A [`std::io::Write`] adapter that checksums everything written
/// through it, so large payloads stream to disk while the trailer CRC is
/// computed on the fly (no double buffering).
pub struct Crc32Writer<W> {
    inner: W,
    crc: Crc32,
    written: u64,
}

impl<W: std::io::Write> Crc32Writer<W> {
    /// Wraps `inner`.
    pub fn new(inner: W) -> Self {
        Self {
            inner,
            crc: Crc32::new(),
            written: 0,
        }
    }

    /// The checksum of all bytes written so far.
    #[must_use]
    pub fn crc(&self) -> u32 {
        self.crc.finish()
    }

    /// Bytes written so far.
    #[must_use]
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Unwraps the inner writer.
    pub fn into_inner(self) -> W {
        self.inner
    }

    /// The inner writer, e.g. to append a trailer that must not be
    /// checksummed.
    pub fn inner_mut(&mut self) -> &mut W {
        &mut self.inner
    }
}

impl<W: std::io::Write> std::io::Write for Crc32Writer<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.crc.update(&buf[..n]);
        self.written += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// A [`std::io::Read`] adapter that checksums everything read through
/// it — the reader-side twin of [`Crc32Writer`].
pub struct Crc32Reader<R> {
    inner: R,
    crc: Crc32,
    read: u64,
}

impl<R: std::io::Read> Crc32Reader<R> {
    /// Wraps `inner`.
    pub fn new(inner: R) -> Self {
        Self {
            inner,
            crc: Crc32::new(),
            read: 0,
        }
    }

    /// The checksum of all bytes read so far.
    #[must_use]
    pub fn crc(&self) -> u32 {
        self.crc.finish()
    }

    /// Bytes read so far.
    #[must_use]
    pub fn read_count(&self) -> u64 {
        self.read
    }

    /// The inner reader, e.g. to read a trailer that must not be
    /// checksummed.
    pub fn inner_mut(&mut self) -> &mut R {
        &mut self.inner
    }
}

impl<R: std::io::Read> std::io::Read for Crc32Reader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.crc.update(&buf[..n]);
        self.read += n as u64;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    #[test]
    fn matches_the_standard_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let mut crc = Crc32::new();
        for chunk in data.chunks(37) {
            crc.update(chunk);
        }
        assert_eq!(crc.finish(), crc32(&data));
    }

    #[test]
    fn any_single_bit_flip_changes_the_checksum() {
        let data = b"the quick brown fox jumps over the lazy dog".to_vec();
        let clean = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), clean, "flip at {byte}.{bit}");
            }
        }
    }

    #[test]
    fn writer_and_reader_adapters_agree() {
        let payload: Vec<u8> = (0..5000u32).flat_map(|v| v.to_le_bytes()).collect();
        let mut writer = Crc32Writer::new(Vec::new());
        writer.write_all(&payload).unwrap();
        assert_eq!(writer.written(), payload.len() as u64);
        let crc_w = writer.crc();
        let stored = writer.into_inner();

        let mut reader = Crc32Reader::new(stored.as_slice());
        let mut back = Vec::new();
        reader.read_to_end(&mut back).unwrap();
        assert_eq!(back, payload);
        assert_eq!(reader.crc(), crc_w);
        assert_eq!(reader.crc(), crc32(&payload));
    }
}
