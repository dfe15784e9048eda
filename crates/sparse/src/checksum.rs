//! CRC32 (IEEE 802.3, the zlib/gzip polynomial) for the on-disk formats.
//!
//! The `GSPB` matrix cache and the `GUST` schedule container share one
//! envelope ([`crate::io::write_envelope`]) that appends a CRC32 of the
//! payload, so a bit flip on disk — a
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
