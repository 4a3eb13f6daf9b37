//! Key-list DMA descriptor for batched GET invocation.
//!
//! A batched GET hands the PE datapath **one** configuration and a DMA
//! descriptor naming N keys; the device walks the list and streams one
//! result per key back, so the per-invocation config-register tax
//! (Fig. 7a's ~45×) is paid once per batch instead of once per key.
//!
//! The wire format is deliberately dumb — a fixed 16-byte header
//! followed by packed little-endian `u64` keys — so the PL-side walker
//! is a counter and an adder, not a parser:
//!
//! ```text
//! struct nkl_key_list {           // little-endian, 8-byte aligned
//!     uint32_t magic;             // "NKL1" = 0x4E4B4C31
//!     uint16_t n_keys;            // 1 ..= NKL_MAX_KEYS
//!     uint16_t flags;             // reserved, must be 0
//!     uint64_t reserved;          // must be 0
//!     uint64_t key[n_keys];       // strictly no duplicates
//! };
//! ```
//!
//! One descriptor must fit a single 4 KiB DMA page (the walker never
//! crosses a page), which caps a batch at [`KeyListDescriptor::MAX_KEYS`]
//! keys. Validation is total: every malformed input is a typed
//! [`KeyListError`], never a panic — the descriptor arrives over DMA
//! from the host, so the device must treat it as hostile bytes.

use std::collections::HashSet;
use std::fmt;

/// Magic tag ("NKL1" in LE byte order) opening every key-list page.
pub(crate) const KEY_LIST_MAGIC: u32 = 0x4E4B_4C31;

/// Bytes in the fixed descriptor header.
pub(crate) const KEY_LIST_HEADER_BYTES: usize = 16;

/// DMA page the walker reads the descriptor from (it never crosses it).
pub(crate) const KEY_LIST_PAGE_BYTES: usize = 4096;

/// Why a key-list descriptor was rejected. Typed so the KV layer can
/// surface a configuration error instead of panicking on hostile bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeyListError {
    /// A batch must name at least one key.
    Empty,
    /// More keys than fit one DMA page.
    OverCapacity { n: usize, max: usize },
    /// The same key appears twice — the walker would emit two results
    /// for one slot and the host could not attribute them.
    DuplicateKey { key: u64 },
    /// The byte buffer ends before the advertised key list does.
    Truncated { need: usize, len: usize },
    /// The header does not open with `KEY_LIST_MAGIC`.
    BadMagic { found: u32 },
    /// The reserved flags/pad fields carry non-zero bits.
    ReservedBits,
}

impl fmt::Display for KeyListError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeyListError::Empty => write!(f, "key list is empty (a batch needs >= 1 key)"),
            KeyListError::OverCapacity { n, max } => {
                write!(f, "key list has {n} keys but one DMA page holds at most {max}")
            }
            KeyListError::DuplicateKey { key } => {
                write!(f, "key {key} appears twice in the key list")
            }
            KeyListError::Truncated { need, len } => {
                write!(f, "key list truncated: need {need} bytes, got {len}")
            }
            KeyListError::BadMagic { found } => {
                write!(f, "key list magic {found:#010x} != {KEY_LIST_MAGIC:#010x} (\"NKL1\")")
            }
            KeyListError::ReservedBits => {
                write!(f, "key list reserved fields must be zero")
            }
        }
    }
}

impl std::error::Error for KeyListError {}

/// A validated key-list DMA descriptor: the batch of keys one PE
/// configuration serves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyListDescriptor {
    keys: Vec<u64>,
}

impl KeyListDescriptor {
    /// Most keys one descriptor can carry: what is left of a 4 KiB DMA
    /// page after the 16-byte header, 8 bytes per key.
    pub const MAX_KEYS: usize = (KEY_LIST_PAGE_BYTES - KEY_LIST_HEADER_BYTES) / 8;

    /// Build a descriptor, validating batch shape: non-empty, within
    /// page capacity, no duplicate keys. Order is preserved — the
    /// walker streams results back in list order.
    pub fn new(keys: &[u64]) -> Result<Self, KeyListError> {
        if keys.is_empty() {
            return Err(KeyListError::Empty);
        }
        if keys.len() > Self::MAX_KEYS {
            return Err(KeyListError::OverCapacity { n: keys.len(), max: Self::MAX_KEYS });
        }
        let mut seen = HashSet::with_capacity(keys.len());
        for &k in keys {
            if !seen.insert(k) {
                return Err(KeyListError::DuplicateKey { key: k });
            }
        }
        Ok(Self { keys: keys.to_vec() })
    }

    /// The keys, in the order the walker serves them.
    #[cfg(test)]
    pub(crate) fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// Number of keys in the batch.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// Bytes the host DMAs to the device for this batch: header plus
    /// the packed key list.
    pub fn dma_bytes(&self) -> usize {
        KEY_LIST_HEADER_BYTES + 8 * self.keys.len()
    }

    /// Serialize to the wire format the PL walker reads.
    #[cfg(test)]
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.dma_bytes());
        out.extend_from_slice(&KEY_LIST_MAGIC.to_le_bytes());
        out.extend_from_slice(&(self.keys.len() as u16).to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes()); // flags
        out.extend_from_slice(&0u64.to_le_bytes()); // reserved
        for &k in &self.keys {
            out.extend_from_slice(&k.to_le_bytes());
        }
        out
    }

    /// Parse and validate hostile bytes back into a descriptor. Every
    /// malformed shape is a typed error; this function cannot panic.
    #[cfg(test)]
    pub(crate) fn decode(bytes: &[u8]) -> Result<Self, KeyListError> {
        let header = bytes
            .get(..KEY_LIST_HEADER_BYTES)
            .ok_or(KeyListError::Truncated { need: KEY_LIST_HEADER_BYTES, len: bytes.len() })?;
        let magic = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
        if magic != KEY_LIST_MAGIC {
            return Err(KeyListError::BadMagic { found: magic });
        }
        let n = u16::from_le_bytes([header[4], header[5]]) as usize;
        let flags = u16::from_le_bytes([header[6], header[7]]);
        let reserved = u64::from_le_bytes([
            header[8], header[9], header[10], header[11], header[12], header[13], header[14],
            header[15],
        ]);
        if flags != 0 || reserved != 0 {
            return Err(KeyListError::ReservedBits);
        }
        if n == 0 {
            return Err(KeyListError::Empty);
        }
        if n > Self::MAX_KEYS {
            return Err(KeyListError::OverCapacity { n, max: Self::MAX_KEYS });
        }
        let need = KEY_LIST_HEADER_BYTES + 8 * n;
        let body = bytes
            .get(KEY_LIST_HEADER_BYTES..need)
            .ok_or(KeyListError::Truncated { need, len: bytes.len() })?;
        let mut keys = Vec::with_capacity(n);
        for chunk in body.chunks_exact(8) {
            keys.push(u64::from_le_bytes([
                chunk[0], chunk[1], chunk[2], chunk[3], chunk[4], chunk[5], chunk[6], chunk[7],
            ]));
        }
        Self::new(&keys)
    }

    /// The C layout of the wire format, byte for byte — snapshotted as
    /// a golden next to the generated Verilog/C headers so the
    /// host-visible ABI cannot drift silently.
    pub fn layout() -> String {
        format!(
            "// Key-list DMA descriptor, little-endian, one 4 KiB page.\n\
             // Walker contract: one PE configuration, n_keys results\n\
             // streamed back in key order.\n\
             #define NKL_MAGIC      0x{KEY_LIST_MAGIC:08X}u /* \"NKL1\" */\n\
             #define NKL_MAX_KEYS   {max}u\n\
             #define NKL_PAGE_BYTES {page}u\n\
             \n\
             struct nkl_key_list {{\n\
             \x20   uint32_t magic;    /* NKL_MAGIC                    */\n\
             \x20   uint16_t n_keys;   /* 1 ..= NKL_MAX_KEYS           */\n\
             \x20   uint16_t flags;    /* reserved, must be 0          */\n\
             \x20   uint64_t reserved; /* must be 0                    */\n\
             \x20   uint64_t key[];    /* n_keys packed LE keys,       */\n\
             \x20                      /* strictly no duplicates       */\n\
             }};\n",
            max = Self::MAX_KEYS,
            page = KEY_LIST_PAGE_BYTES,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_preserve_key_order() {
        let keys = [7u64, 3, u64::MAX, 0, 42];
        let d = KeyListDescriptor::new(&keys).unwrap();
        assert_eq!(d.len(), 5);
        assert_eq!(d.dma_bytes(), 16 + 40);
        let bytes = d.encode();
        assert_eq!(bytes.len(), d.dma_bytes());
        let back = KeyListDescriptor::decode(&bytes).unwrap();
        assert_eq!(back.keys(), &keys);
        assert_eq!(back, d);
    }

    #[test]
    fn capacity_is_one_dma_page() {
        // 16-byte header + 510 * 8 = 4096 exactly.
        assert_eq!(KeyListDescriptor::MAX_KEYS, 510);
        let max: Vec<u64> = (0..510).collect();
        let d = KeyListDescriptor::new(&max).unwrap();
        assert_eq!(d.dma_bytes(), KEY_LIST_PAGE_BYTES);
        let over: Vec<u64> = (0..511).collect();
        assert_eq!(
            KeyListDescriptor::new(&over),
            Err(KeyListError::OverCapacity { n: 511, max: 510 })
        );
    }

    #[test]
    fn empty_and_duplicate_batches_are_typed_errors() {
        assert_eq!(KeyListDescriptor::new(&[]), Err(KeyListError::Empty));
        assert_eq!(KeyListDescriptor::new(&[1, 2, 1]), Err(KeyListError::DuplicateKey { key: 1 }));
    }

    #[test]
    fn decode_rejects_every_malformed_shape_without_panicking() {
        let good = KeyListDescriptor::new(&[10, 20, 30]).unwrap().encode();

        // Truncated header, truncated body — at every possible length.
        for cut in 0..good.len() {
            let err = KeyListDescriptor::decode(&good[..cut]).unwrap_err();
            assert!(matches!(err, KeyListError::Truncated { .. }), "cut at {cut}: {err:?}");
        }

        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(KeyListDescriptor::decode(&bad), Err(KeyListError::BadMagic { .. })));

        // Zero-length batch.
        let mut zero = good.clone();
        zero[4] = 0;
        zero[5] = 0;
        assert_eq!(KeyListDescriptor::decode(&zero[..16]), Err(KeyListError::Empty));

        // Advertised count over capacity.
        let mut over = good.clone();
        over[4..6].copy_from_slice(&1000u16.to_le_bytes());
        assert!(matches!(
            KeyListDescriptor::decode(&over),
            Err(KeyListError::OverCapacity { n: 1000, .. })
        ));

        // Non-zero reserved bits.
        let mut flags = good.clone();
        flags[6] = 1;
        assert_eq!(KeyListDescriptor::decode(&flags), Err(KeyListError::ReservedBits));
        let mut resv = good.clone();
        resv[12] = 0xAA;
        assert_eq!(KeyListDescriptor::decode(&resv), Err(KeyListError::ReservedBits));

        // Duplicate keys on the wire.
        let mut dup = good;
        let (a, b) = (16..24, 24..32);
        let first: Vec<u8> = dup[a.clone()].to_vec();
        dup[b].copy_from_slice(&first);
        let _ = &dup[a];
        assert!(matches!(
            KeyListDescriptor::decode(&dup),
            Err(KeyListError::DuplicateKey { key: 10 })
        ));
    }

    #[test]
    fn seeded_fuzz_decode_never_panics() {
        // Splitmix-style deterministic byte fuzzer: decode must return
        // Ok or a typed error for arbitrary garbage, never panic.
        let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for round in 0..512 {
            let len = (next() % 96) as usize;
            let mut bytes = Vec::with_capacity(len);
            while bytes.len() < len {
                bytes.extend_from_slice(&next().to_le_bytes());
            }
            bytes.truncate(len);
            // Half the rounds, plant the right magic so deeper paths run.
            if round % 2 == 0 && bytes.len() >= 4 {
                bytes[..4].copy_from_slice(&KEY_LIST_MAGIC.to_le_bytes());
            }
            let _ = KeyListDescriptor::decode(&bytes);
        }
    }

    #[test]
    fn layout_snapshot_names_the_abi_constants() {
        let text = KeyListDescriptor::layout();
        assert!(text.contains("0x4E4B4C31"));
        assert!(text.contains("NKL_MAX_KEYS   510"));
        assert!(text.contains("struct nkl_key_list"));
    }
}
