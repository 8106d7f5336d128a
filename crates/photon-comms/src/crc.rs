//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`).
//!
//! Used by the wire format to detect payload corruption in transit —
//! Photon's Link assumes TLS gives confidentiality, but frames are also
//! integrity-checked end-to-end so a corrupted model update is rejected
//! rather than silently aggregated. A model-sized frame is megabytes and a
//! TCP round checks four of them one after another, so on x86-64 hosts
//! with PCLMULQDQ the checksum folds 64 input bytes per step by carry-less
//! multiplication ([`clmul`]). The slicing-by-16 table walk, 16 bytes per
//! step through 16 tables, takes what the fold leaves — inputs shorter than
//! 64 bytes and the last 0–15 bytes — and is the whole path elsewhere.
//! Both paths extend the same `u32` register, so they mix freely.

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
pub(crate) struct Crc32(u32);

impl Crc32 {
    /// The state of a checksum over zero bytes.
    pub fn new() -> Crc32 {
        Crc32(0xFFFF_FFFF)
    }

    /// Extends the checksum over `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        let bytes = clmul::fold(&mut self.0, bytes);
        self.0 = slice16(self.0, bytes);
    }

    /// The CRC-32 of everything fed so far.
    pub(crate) fn finalize(self) -> u32 {
        !self.0
    }
}

/// Extends the register `crc` over `bytes` by the slicing-by-16 table walk.
fn slice16(mut crc: u32, bytes: &[u8]) -> u32 {
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
    crc
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

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)] // `core::arch` intrinsics; `fold` checks CPU support before entering them.
mod clmul {
    //! The reflected CRC-32 by carry-less multiplication, after Gopal et
    //! al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
    //! Instruction" (Intel, 2009). Four 128-bit lanes each carry their
    //! remainder 512 bits forward per step (64 input bytes in all), the
    //! lanes fold into one, that one folds 16 bytes per step, and the
    //! 128-bit remainder is cut to 64, then 32 bits and Barrett-reduced.
    //! Each `K` is `x^n mod P(x)`, bit-reflected and shifted one place, for
    //! the distance `n` its fold spans.

    use core::arch::x86_64::*;

    /// Fold across 512 bits: `x^(4·128+32)` (low), `x^(4·128−32)` (high).
    const K1: i64 = 0x1_5444_2BD4;
    const K2: i64 = 0x1_C6E4_1596;
    /// Fold across 128 bits: `x^(128+32)` (low), `x^(128−32)` (high).
    const K3: i64 = 0x1_7519_97D0;
    const K4: i64 = 0x0_CCAA_009E;
    /// Fold 64 bits into 32: `x^64`.
    const K5: i64 = 0x1_63CD_6124;
    /// `P(x)` reflected, and the Barrett constant `μ = ⌊x^64 / P(x)⌋` reflected.
    const P: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    /// Folds the longest prefix of `bytes` made of whole 16-byte blocks
    /// into the register `crc` and returns the rest. Returns `bytes`
    /// untouched when it is shorter than 64 bytes or the CPU lacks
    /// PCLMULQDQ or SSE4.1.
    pub(super) fn fold<'a>(crc: &mut u32, bytes: &'a [u8]) -> &'a [u8] {
        let (blocks, tail) = bytes.as_chunks::<16>();
        if blocks.len() < 4
            || !is_x86_feature_detected!("pclmulqdq")
            || !is_x86_feature_detected!("sse4.1")
        {
            return bytes;
        }
        // SAFETY: both features were detected on this CPU just above.
        *crc = unsafe { fold_blocks(*crc, blocks) };
        tail
    }

    /// The register after `blocks`, starting from `crc`. Panics on fewer
    /// than four blocks.
    ///
    /// # Safety
    ///
    /// The CPU must support PCLMULQDQ and SSE4.1.
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    unsafe fn fold_blocks(crc: u32, blocks: &[[u8; 16]]) -> u32 {
        let (first, rest) = blocks
            .split_first_chunk::<4>()
            .expect("the fold starts from four blocks");
        let (quads, singles) = rest.as_chunks::<4>();
        let mut lanes = first.each_ref().map(load);
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(crc as i32));
        let k1k2 = _mm_set_epi64x(K2, K1);
        for quad in quads {
            for (lane, block) in lanes.iter_mut().zip(quad) {
                *lane = fold16(*lane, k1k2, load(block));
            }
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let [mut acc, b, c, d] = lanes;
        for next in [b, c, d].into_iter().chain(singles.iter().map(load)) {
            acc = fold16(acc, k3k4, next);
        }
        reduce(acc, k3k4)
    }

    /// One block's 16 bytes as a vector.
    #[inline]
    fn load(block: &[u8; 16]) -> __m128i {
        // SAFETY: `block` is 16 readable bytes, and the unaligned load has
        // no alignment requirement; SSE2 is baseline on x86-64.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// `acc` carried forward by the distance `k` encodes, plus `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold16(acc: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, k, 0x00);
        let hi = _mm_clmulepi64_si128(acc, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// The 32-bit register a 128-bit remainder stands for.
    #[inline]
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    fn reduce(x: __m128i, k3k4: __m128i) -> u32 {
        let low32 = _mm_setr_epi32(-1, 0, -1, 0);
        // 128 → 64 bits: the low half times `K4`, into the high half.
        let x = _mm_xor_si128(_mm_srli_si128(x, 8), _mm_clmulepi64_si128(x, k3k4, 0x10));
        // 64 → 32 bits: the low word times `K5`, into the rest.
        let k5 = _mm_set_epi64x(0, K5);
        let x = _mm_xor_si128(
            _mm_srli_si128(x, 4),
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00),
        );
        // Barrett: t1 = ⌊R · μ⌋ on the low word, t2 = t1 · P, R ⊕ t2.
        let pmu = _mm_set_epi64x(MU, P);
        let t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pmu, 0x10);
        let t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), pmu, 0x00);
        _mm_extract_epi32(_mm_xor_si128(x, t), 1) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The one-byte-per-step table walk the slicing form replaced; kept as
    /// the reference both fast paths are tested against.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    /// The table path alone, whatever the CPU.
    fn crc32_table(bytes: &[u8]) -> u32 {
        !slice16(0xFFFF_FFFF, bytes)
    }

    /// `len` splitmix64 bytes from `seed`.
    fn noise(len: usize, mut seed: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            out.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
        }
        out.truncate(len);
        out
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
    fn every_length_and_offset_matches_the_table_and_the_bytewise_walk() {
        let raw = noise(1024 + 16, 1);
        for offset in 0..16 {
            for len in 0..=1024 {
                let bytes = &raw[offset..offset + len];
                let want = crc32_bytewise(bytes);
                assert_eq!(
                    crc32_table(bytes),
                    want,
                    "table: offset {offset}, len {len}"
                );
                assert_eq!(crc32(bytes), want, "dispatched: offset {offset}, len {len}");
            }
        }
    }

    #[test]
    fn incremental_splits_at_fold_boundaries_equal_one_shot() {
        let split_at = |raw: &[u8], split: usize| {
            let mut crc = Crc32::new();
            crc.update(&raw[..split]);
            crc.update(&raw[split..]);
            crc.finalize()
        };
        let short = noise(300, 2);
        let whole = crc32_table(&short);
        for split in 0..=short.len() {
            assert_eq!(split_at(&short, split), whole, "300 B, split {split}");
        }
        let long = noise(70_000, 3);
        let whole = crc32_table(&long);
        assert_eq!(crc32(&long), whole);
        for boundary in (0..=long.len()).step_by(64) {
            for split in boundary.saturating_sub(1)..=(boundary + 1).min(long.len()) {
                assert_eq!(split_at(&long, split), whole, "70 KB, split {split}");
            }
        }
    }

    #[test]
    fn model_sized_frame_checksum_is_pinned() {
        // proxy_large's broadcast frame size; the constant is the table
        // path's value.
        let frame = noise(6_477_353, 4);
        assert_eq!(crc32_table(&frame), 0x2658_67B4);
        assert_eq!(crc32(&frame), 0x2658_67B4);
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data = noise(4096, 5);
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32(&data), base, "missed flip at {byte}:{bit}");
                data[byte] ^= 1 << bit;
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
