//! Small self-contained utilities: CRC-32C and a bloom filter.
//!
//! Both are implemented here rather than pulled in as dependencies
//! because their exact behaviour is part of the on-flash format this
//! repository defines (see DESIGN.md's dependency policy).

use crate::error::{NkvError, NkvResult};

/// Decode `N` little-endian bytes at `offset`, reporting truncation as a
/// typed [`NkvError::Corrupt`] naming the structure being decoded.
fn le_bytes<const N: usize>(bytes: &[u8], offset: usize, what: &'static str) -> NkvResult<[u8; N]> {
    offset
        .checked_add(N)
        .and_then(|end| bytes.get(offset..end))
        .and_then(|s| s.try_into().ok())
        .ok_or(NkvError::Corrupt { what, offset, need: N, len: bytes.len() })
}

/// Decode a little-endian `u16` at `offset` with a typed error.
pub(crate) fn le_u16(bytes: &[u8], offset: usize, what: &'static str) -> NkvResult<u16> {
    le_bytes::<2>(bytes, offset, what).map(u16::from_le_bytes)
}

/// Decode a little-endian `u32` at `offset` with a typed error.
pub(crate) fn le_u32(bytes: &[u8], offset: usize, what: &'static str) -> NkvResult<u32> {
    le_bytes::<4>(bytes, offset, what).map(u32::from_le_bytes)
}

/// Decode a little-endian `u64` at `offset` with a typed error.
pub(crate) fn le_u64(bytes: &[u8], offset: usize, what: &'static str) -> NkvResult<u64> {
    le_bytes::<8>(bytes, offset, what).map(u64::from_le_bytes)
}

const CRC32C_POLY: u32 = 0x82F6_3B78; // reflected 0x1EDC6F41

/// Slicing-by-8 tables: `[0]` is the classic byte-at-a-time table,
/// `[k][b]` the CRC of byte `b` followed by `k` zero bytes.
static CRC32C_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ CRC32C_POLY } else { crc >> 1 };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// Segment lengths (bytes, as powers of two) of the hardware kernel's
/// three-chain rounds: long rounds cover the bulk of a 32 KiB block,
/// short ones most of what is left.
#[cfg(target_arch = "x86_64")]
const FOLD_LOG2_BYTES: [u32; 2] = [13, 8];

/// Fold tables, one per segment length (Adler's scheme): "feed `2^n`
/// zero bytes" is a linear map on the raw CRC register, stored like
/// [`CRC32C_TABLES`] as `[k][b]` = the image of byte `b` at register
/// byte `k`. It turns the CRC of a segment computed from register 0
/// into its contribution behind whatever preceded it.
#[cfg(target_arch = "x86_64")]
static CRC32C_FOLD: [[[u32; 256]; 4]; 2] = {
    /// `m · v` over GF(2); `m[i]` is the image of register bit `i`.
    const fn times(m: &[u32; 32], mut v: u32) -> u32 {
        let mut sum = 0;
        let mut i = 0;
        while v != 0 {
            if v & 1 != 0 {
                sum ^= m[i];
            }
            v >>= 1;
            i += 1;
        }
        sum
    }
    let mut folds = [[[0u32; 256]; 4]; 2];
    let mut f = 0;
    while f < folds.len() {
        // One zero byte, then squared once per doubling of the length.
        let mut m = [0u32; 32];
        let mut i = 0;
        while i < 32 {
            let mut crc = 1u32 << i;
            let mut bit = 0;
            while bit < 8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ CRC32C_POLY } else { crc >> 1 };
                bit += 1;
            }
            m[i] = crc;
            i += 1;
        }
        let mut doubling = 0;
        while doubling < FOLD_LOG2_BYTES[f] {
            let mut square = [0u32; 32];
            let mut i = 0;
            while i < 32 {
                square[i] = times(&m, m[i]);
                i += 1;
            }
            m = square;
            doubling += 1;
        }
        let mut k = 0;
        while k < 4 {
            let mut b = 0;
            while b < 256 {
                folds[f][k][b] = times(&m, (b as u32) << (8 * k));
                b += 1;
            }
            k += 1;
        }
        f += 1;
    }
    folds
};

/// CRC-32C (Castagnoli), as used by RocksDB block footers: the SSE4.2
/// `crc32` instruction where the CPU has it, slicing-by-8 otherwise.
pub fn crc32c(data: &[u8]) -> u32 {
    crc32c_hw(data).unwrap_or_else(|| crc32c_portable(data))
}

/// Portable kernel: eight table lookups per 8-byte word, byte-wise tail.
fn crc32c_portable(data: &[u8]) -> u32 {
    let t = &CRC32C_TABLES;
    let mut crc = !0u32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Hardware kernel: `None` when the CPU (or the target) has no CRC-32C
/// instruction, so the caller falls back to [`crc32c_portable`].
#[allow(unsafe_code)]
fn crc32c_hw(data: &[u8]) -> Option<u32> {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};

        fn word(w: &[u8]) -> u64 {
            u64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]])
        }

        #[target_feature(enable = "sse4.2")]
        fn sse42(data: &[u8]) -> u32 {
            // The instruction zero-extends its 32-bit result.
            let mut crc = u64::from(!0u32);
            let mut rest = data;
            // One chain of `crc32` instructions is bound by the
            // instruction's 3-cycle latency, not its 1-per-cycle
            // throughput: run three chains over three adjacent segments
            // and fold them into one register with the zero-feed tables.
            for (fold, log2) in CRC32C_FOLD.iter().zip(FOLD_LOG2_BYTES) {
                let seg = 1usize << log2;
                let feed_zeros = |crc: u64| {
                    let crc = crc as u32;
                    fold[0][(crc & 0xFF) as usize]
                        ^ fold[1][((crc >> 8) & 0xFF) as usize]
                        ^ fold[2][((crc >> 16) & 0xFF) as usize]
                        ^ fold[3][(crc >> 24) as usize]
                };
                while rest.len() >= 3 * seg {
                    let (a, tail) = rest.split_at(seg);
                    let (b, tail) = tail.split_at(seg);
                    let (c, tail) = tail.split_at(seg);
                    let (mut crc_b, mut crc_c) = (0, 0);
                    for ((a, b), c) in
                        a.chunks_exact(8).zip(b.chunks_exact(8)).zip(c.chunks_exact(8))
                    {
                        crc = _mm_crc32_u64(crc, word(a));
                        crc_b = _mm_crc32_u64(crc_b, word(b));
                        crc_c = _mm_crc32_u64(crc_c, word(c));
                    }
                    crc = u64::from(feed_zeros(crc)) ^ crc_b;
                    crc = u64::from(feed_zeros(crc)) ^ crc_c;
                    rest = tail;
                }
            }
            let mut words = rest.chunks_exact(8);
            for w in &mut words {
                crc = _mm_crc32_u64(crc, word(w));
            }
            let mut crc = crc as u32;
            for &b in words.remainder() {
                crc = _mm_crc32_u8(crc, b);
            }
            !crc
        }

        if std::arch::is_x86_feature_detected!("sse4.2") {
            // SAFETY: `sse42` is a safe fn whose only requirement is its
            // `#[target_feature(enable = "sse4.2")]`; the runtime
            // detection on the line above just confirmed this CPU
            // executes SSE4.2 instructions.
            return Some(unsafe { sse42(data) });
        }
    }
    None
}

/// A fixed-size bloom filter over `u64` keys (double hashing, k probes).
///
/// Every SST carries one so GET and shadow checks can skip tables that
/// cannot contain a key — the standard LSM read-path optimization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bloom {
    bits: Vec<u64>,
    n_bits: u64,
    k: u32,
}

impl Bloom {
    /// Build an empty filter sized for `n` keys at `bits_per_key`.
    pub fn new(n: usize, bits_per_key: u32) -> Self {
        let n_bits = ((n as u64 * u64::from(bits_per_key)).max(64)).next_multiple_of(64);
        // k ≈ bits_per_key · ln 2, clamped to a sane range.
        let k = ((f64::from(bits_per_key) * 0.69) as u32).clamp(1, 12);
        Self { bits: vec![0; (n_bits / 64) as usize], n_bits, k }
    }

    fn hashes(key: u64) -> (u64, u64) {
        // Two independent mixes (splitmix-style).
        let mut a = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        a ^= a >> 29;
        a = a.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        a ^= a >> 32;
        let mut b = key.wrapping_add(0x94D0_49BB_1331_11EB).wrapping_mul(0xD6E8_FEB8_6659_FD93);
        b ^= b >> 31;
        (a, b | 1) // odd step so probes cover the table
    }

    /// Insert a key.
    pub fn insert(&mut self, key: u64) {
        let (h, step) = Self::hashes(key);
        for i in 0..self.k {
            let bit = h.wrapping_add(step.wrapping_mul(u64::from(i))) % self.n_bits;
            self.bits[(bit / 64) as usize] |= 1 << (bit % 64);
        }
    }

    /// May the filter contain `key`? (No false negatives.)
    pub fn may_contain(&self, key: u64) -> bool {
        let (h, step) = Self::hashes(key);
        (0..self.k).all(|i| {
            let bit = h.wrapping_add(step.wrapping_mul(u64::from(i))) % self.n_bits;
            self.bits[(bit / 64) as usize] & (1 << (bit % 64)) != 0
        })
    }

    /// Size of the filter in bytes.
    #[cfg(test)]
    pub(crate) fn byte_size(&self) -> usize {
        self.bits.len() * 8
    }

    /// Raw parts for serialization: `(words, n_bits, k)`.
    pub(crate) fn to_parts(&self) -> (&[u64], u64, u32) {
        (&self.bits, self.n_bits, self.k)
    }

    /// Rebuild a filter from serialized parts (inverse of
    /// [`Bloom::to_parts`]).
    pub(crate) fn from_parts(words: Vec<u64>, n_bits: u64, k: u32) -> Self {
        assert_eq!(words.len() as u64 * 64, n_bits, "word count must match n_bits");
        Self { bits: words, n_bits, k }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time loop `crc32c` used to be: the reference both
    /// kernels are checked against.
    fn crc32c_reference(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc = (crc >> 8) ^ CRC32C_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    /// Standard CRC-32C test vectors.
    const KNOWN_VECTORS: [(&[u8], u32); 3] =
        [(b"", 0x0000_0000), (b"123456789", 0xE306_9283), (&[0u8; 32], 0x8A91_36AA)];

    /// Every length 0..=300 and the lengths around every boundary of the
    /// hardware kernel's three-chain rounds (one and two rounds of each
    /// segment length, a long round followed by short ones, a whole
    /// 32 KiB block) at every start alignment 0..8, then seeded random
    /// buffers up to 64 KiB at random offsets.
    fn check_kernel_against_reference(kernel: impl Fn(&[u8]) -> u32) {
        for (data, crc) in KNOWN_VECTORS {
            assert_eq!(kernel(data), crc);
        }
        let mut rng = ndp_workload::SplitMix64::new(0x00C4_C32C);
        let buf: Vec<u8> = (0..64 * 1024 + 8).map(|_| rng.next_u64() as u8).collect();
        let rounds = [3 * 256, 6 * 256, 3 * 8192, 3 * 8192 + 3 * 256, 6 * 8192];
        let edges = rounds.iter().flat_map(|&r| [r - 1, r, r + 1]).chain([32_768, 32_768 + 7]);
        for len in (0..=300).chain(edges) {
            for align in 0..8 {
                let data = &buf[align..align + len];
                assert_eq!(kernel(data), crc32c_reference(data), "align {align}, len {len}");
            }
        }
        for _ in 0..64 {
            let align = rng.next_u64() as usize % 8;
            let len = rng.next_u64() as usize % (64 * 1024 + 1);
            let data = &buf[align..align + len];
            assert_eq!(kernel(data), crc32c_reference(data), "align {align}, len {len}");
        }
        assert_eq!(kernel(&buf[..64 * 1024]), crc32c_reference(&buf[..64 * 1024]));
    }

    #[test]
    fn crc32c_known_vectors() {
        for (data, crc) in KNOWN_VECTORS {
            assert_eq!(crc32c(data), crc);
            assert_eq!(crc32c_reference(data), crc);
        }
    }

    #[test]
    fn portable_kernel_matches_the_bytewise_reference() {
        check_kernel_against_reference(crc32c_portable);
    }

    #[test]
    fn hardware_kernel_matches_the_bytewise_reference() {
        if crc32c_hw(b"").is_none() {
            println!("note: no SSE4.2 on this CPU, hardware CRC-32C kernel not exercised");
            return;
        }
        check_kernel_against_reference(|d| crc32c_hw(d).expect("detected above"));
    }

    #[test]
    fn crc_detects_single_bit_flips() {
        let mut data = b"the quick brown fox jumps over the lazy dog".to_vec();
        let clean = crc32c(&data);
        for byte in 0..data.len() {
            data[byte] ^= 0x10;
            assert_ne!(crc32c(&data), clean, "flip at byte {byte} undetected");
            data[byte] ^= 0x10;
        }
    }

    #[test]
    fn bloom_has_no_false_negatives() {
        let mut b = Bloom::new(10_000, 10);
        for k in 0..10_000u64 {
            b.insert(k * 7 + 1);
        }
        for k in 0..10_000u64 {
            assert!(b.may_contain(k * 7 + 1));
        }
    }

    #[test]
    fn bloom_false_positive_rate_is_low() {
        let mut b = Bloom::new(10_000, 10);
        for k in 0..10_000u64 {
            b.insert(k);
        }
        let fp = (10_000u64..110_000).filter(|&k| b.may_contain(k)).count();
        let rate = fp as f64 / 100_000.0;
        assert!(rate < 0.03, "false positive rate {rate} too high");
    }

    #[test]
    fn empty_bloom_contains_nothing_much() {
        let b = Bloom::new(100, 10);
        let fp = (0..1000u64).filter(|&k| b.may_contain(k)).count();
        assert_eq!(fp, 0);
    }

    #[test]
    fn bloom_parts_round_trip() {
        let mut b = Bloom::new(500, 10);
        for k in 0..500u64 {
            b.insert(k * 13);
        }
        let (words, n_bits, k) = b.to_parts();
        let rebuilt = Bloom::from_parts(words.to_vec(), n_bits, k);
        assert_eq!(rebuilt, b);
        for key in 0..500u64 {
            assert!(rebuilt.may_contain(key * 13));
        }
    }

    #[test]
    fn bloom_sizes_scale_with_keys() {
        assert!(Bloom::new(1000, 10).byte_size() >= 1000 * 10 / 8);
        assert!(Bloom::new(1, 10).byte_size() >= 8);
    }
}
