//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`), slicing-by-16.
//!
//! Used by the wire format to detect payload corruption in transit —
//! Photon's Link assumes TLS gives confidentiality, but frames are also
//! integrity-checked end-to-end so a corrupted model update is rejected
//! rather than silently aggregated. A model-sized frame is megabytes, so
//! the checksum folds 16 input bytes per step through 16 tables instead
//! of one byte through one.

/// One-shot CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finalize()
}

/// Incremental CRC-32: feeding a buffer in any number of pieces yields the
/// one-shot [`crc32`] of the concatenation. The state is `Copy`, so a
/// checksum over a shared prefix can be forked and extended with different
/// suffixes without re-reading the prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crc32(u32);

impl Crc32 {
    /// The state of a checksum over zero bytes.
    pub fn new() -> Crc32 {
        Crc32(0xFFFF_FFFF)
    }

    /// Extends the checksum over `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut crc = self.0;
        let mut blocks = bytes.chunks_exact(16);
        for block in &mut blocks {
            let word = |at: usize| {
                u32::from_le_bytes([block[at], block[at + 1], block[at + 2], block[at + 3]])
            };
            let a = word(0) ^ crc;
            let (b, c, d) = (word(4), word(8), word(12));
            crc = TABLES[15][(a & 0xFF) as usize]
                ^ TABLES[14][((a >> 8) & 0xFF) as usize]
                ^ TABLES[13][((a >> 16) & 0xFF) as usize]
                ^ TABLES[12][(a >> 24) as usize]
                ^ TABLES[11][(b & 0xFF) as usize]
                ^ TABLES[10][((b >> 8) & 0xFF) as usize]
                ^ TABLES[9][((b >> 16) & 0xFF) as usize]
                ^ TABLES[8][(b >> 24) as usize]
                ^ TABLES[7][(c & 0xFF) as usize]
                ^ TABLES[6][((c >> 8) & 0xFF) as usize]
                ^ TABLES[5][((c >> 16) & 0xFF) as usize]
                ^ TABLES[4][(c >> 24) as usize]
                ^ TABLES[3][(d & 0xFF) as usize]
                ^ TABLES[2][((d >> 8) & 0xFF) as usize]
                ^ TABLES[1][((d >> 16) & 0xFF) as usize]
                ^ TABLES[0][(d >> 24) as usize];
        }
        for &b in blocks.remainder() {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        self.0 = crc;
    }

    /// The CRC-32 of everything fed so far.
    pub fn finalize(self) -> u32 {
        !self.0
    }
}

/// `TABLES[0]` is the classic bytewise table; `TABLES[k][i]` is the CRC of
/// byte `i` followed by `k` zero bytes, which is what lets 16 bytes fold
/// in one step.
static TABLES: [[u32; 256]; 16] = build_tables();

const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The one-byte-per-step table walk the slicing form replaced; kept as
    /// the reference the fast path is proptested against.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // Standard CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        // Long enough to take the 16-byte path twice plus a tail.
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"the quick brown fox".to_vec();
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut corrupted = data.clone();
                corrupted[byte] ^= 1 << bit;
                assert_ne!(crc32(&corrupted), base, "missed flip at {byte}:{bit}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The slicing form equals the bytewise reference at every length
        /// and at every start alignment of the input within a 16-byte lane.
        #[test]
        fn slicing_equals_bytewise_reference(
            raw in proptest::collection::vec(any::<u8>(), 0..70_016),
        ) {
            for align in 0..16.min(raw.len() + 1) {
                let bytes = &raw[align..];
                prop_assert_eq!(crc32(bytes), crc32_bytewise(bytes), "align {}", align);
            }
        }

        /// Splitting the input anywhere leaves the checksum unchanged.
        #[test]
        fn incremental_equals_one_shot_at_every_split(
            raw in proptest::collection::vec(any::<u8>(), 0..600),
        ) {
            let whole = crc32(&raw);
            for split in 0..=raw.len() {
                let mut crc = Crc32::new();
                crc.update(&raw[..split]);
                crc.update(&raw[split..]);
                prop_assert_eq!(crc.finalize(), whole, "split {}", split);
            }
        }
    }
}
