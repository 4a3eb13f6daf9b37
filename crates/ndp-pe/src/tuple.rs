//! Tuples and the layout codec.
//!
//! The Tuple Input Buffer's job (paper, Sec. IV-B) is to turn the raw bit
//! sequence coming from memory into *processable structured data*: a
//! vector of padded comparator lanes plus a second vector carrying the
//! opaque string postfixes. [`LayoutCodec`] implements exactly that
//! conversion (and its inverse for the Output Buffer) for a given
//! [`TupleLayout`].

use ndp_ir::{TransformPlan, TupleLayout};
use ndp_spec::PrimTy;

/// A tuple in the padded internal representation that flows through the
/// filtering and transformation units.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Tuple {
    /// One zero-extended value per comparator lane, in lane order.
    pub lanes: Vec<u64>,
    /// Concatenated opaque string-postfix bytes, in field order.
    pub(crate) postfix: Vec<u8>,
}

/// Where a layout field lives in the padded representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// Lane index plus the primitive type used for comparisons.
    Lane { lane: u32, prim: PrimTy },
    /// Byte range within `Tuple::postfix`.
    Postfix { offset: usize, len: usize },
}

/// Precomputed pack/unpack tables for one tuple layout.
///
/// All fields of the specification language are byte-aligned (primitives
/// are 1/2/4/8 bytes, postfixes are byte arrays), which the constructor
/// asserts; the codec therefore works on byte ranges, exactly like the
/// generated hardware's byte-enable based realignment network.
#[derive(Debug, Clone)]
pub struct LayoutCodec {
    /// Per layout-field: packed byte offset, byte length, destination slot.
    slots: Vec<(usize, usize, Slot)>,
    tuple_bytes: usize,
    lanes: usize,
    postfix_bytes: usize,
}

impl LayoutCodec {
    /// Build the codec for `layout`.
    pub fn new(layout: &TupleLayout) -> Self {
        let mut slots = Vec::with_capacity(layout.fields.len());
        let mut postfix_off = 0usize;
        for f in &layout.fields {
            assert_eq!(f.offset_bits % 8, 0, "field {} not byte aligned", f.path);
            assert_eq!(f.width_bits % 8, 0, "field {} not byte sized", f.path);
            let off = (f.offset_bits / 8) as usize;
            let len = (f.width_bits / 8) as usize;
            let slot = match (f.lane, f.prim) {
                (Some(lane), Some(prim)) => Slot::Lane { lane, prim },
                (None, None) => {
                    let s = Slot::Postfix { offset: postfix_off, len };
                    postfix_off += len;
                    s
                }
                _ => unreachable!("lane and prim are assigned together"),
            };
            slots.push((off, len, slot));
        }
        Self {
            slots,
            tuple_bytes: (layout.tuple_bits / 8) as usize,
            lanes: layout.lanes as usize,
            postfix_bytes: postfix_off,
        }
    }

    /// Packed tuple size in bytes.
    pub fn tuple_bytes(&self) -> usize {
        self.tuple_bytes
    }

    /// Number of comparator lanes.
    pub(crate) fn lanes(&self) -> usize {
        self.lanes
    }

    /// Total postfix bytes carried per tuple.
    pub(crate) fn postfix_bytes(&self) -> usize {
        self.postfix_bytes
    }

    /// Slot of layout field `idx`.
    pub(crate) fn slot(&self, idx: usize) -> Slot {
        self.slots[idx].2
    }

    /// Primitive type of comparator lane `lane`.
    pub fn lane_prim(&self, lane: u32) -> Option<PrimTy> {
        self.slots.iter().find_map(|(_, _, s)| match s {
            Slot::Lane { lane: l, prim } if *l == lane => Some(*prim),
            _ => None,
        })
    }

    /// Unpack one packed tuple (exactly [`Self::tuple_bytes`] long) into
    /// the padded representation.
    pub fn unpack(&self, bytes: &[u8]) -> Tuple {
        debug_assert_eq!(bytes.len(), self.tuple_bytes);
        let mut t = Tuple { lanes: vec![0; self.lanes], postfix: vec![0; self.postfix_bytes] };
        self.unpack_into(bytes, &mut t);
        t
    }

    /// Allocation-free variant of [`Self::unpack`] reusing `t`'s buffers.
    pub(crate) fn unpack_into(&self, bytes: &[u8], t: &mut Tuple) {
        t.lanes.resize(self.lanes, 0);
        t.postfix.resize(self.postfix_bytes, 0);
        for &(off, len, slot) in &self.slots {
            match slot {
                Slot::Lane { lane, .. } => {
                    let mut v = 0u64;
                    // Little-endian zero-extension into the 64-bit lane.
                    for (i, b) in bytes[off..off + len].iter().enumerate() {
                        v |= u64::from(*b) << (8 * i);
                    }
                    t.lanes[lane as usize] = v;
                }
                Slot::Postfix { offset, len: plen } => {
                    t.postfix[offset..offset + plen].copy_from_slice(&bytes[off..off + plen]);
                }
            }
        }
    }

    /// Pack the padded representation back to wire bytes, appending to
    /// `out` (Output Buffer direction).
    pub fn pack_into(&self, t: &Tuple, out: &mut Vec<u8>) {
        let start = out.len();
        out.resize(start + self.tuple_bytes, 0);
        let bytes = &mut out[start..];
        for &(off, len, slot) in &self.slots {
            match slot {
                Slot::Lane { lane, .. } => {
                    let v = t.lanes[lane as usize];
                    for i in 0..len {
                        bytes[off + i] = (v >> (8 * i)) as u8;
                    }
                }
                Slot::Postfix { offset, len: plen } => {
                    bytes[off..off + plen].copy_from_slice(&t.postfix[offset..offset + plen]);
                }
            }
        }
    }

    /// Extract the raw lane value of layout field `idx` directly from
    /// packed bytes.
    #[cfg(test)]
    pub(crate) fn read_field_raw(&self, bytes: &[u8], idx: usize) -> u64 {
        let (off, len, _) = self.slots[idx];
        let mut v = 0u64;
        for (i, b) in bytes[off..off + len.min(8)].iter().enumerate() {
            v |= u64::from(*b) << (8 * i);
        }
        v
    }

    /// Byte range of layout field `idx` in the packed representation.
    pub(crate) fn field_range(&self, idx: usize) -> (usize, usize) {
        let (off, len, _) = self.slots[idx];
        (off, len)
    }
}

/// Apply a [`TransformPlan`] to a padded tuple, producing the output
/// tuple under the output codec.
///
/// Lane moves copy lane values; postfix moves copy byte ranges. This is
/// the functional semantics of the Data Transformation Unit.
pub fn apply_transform(
    plan: &TransformPlan,
    in_codec: &LayoutCodec,
    out_codec: &LayoutCodec,
    input: &Tuple,
    output: &mut Tuple,
) {
    output.lanes.clear();
    output.lanes.resize(out_codec.lanes(), 0);
    output.postfix.clear();
    output.postfix.resize(out_codec.postfix_bytes(), 0);
    for mv in &plan.moves {
        match (out_codec.slot(mv.dst), in_codec.slot(mv.src)) {
            (Slot::Lane { lane: dl, .. }, Slot::Lane { lane: sl, .. }) => {
                output.lanes[dl as usize] = input.lanes[sl as usize];
            }
            (Slot::Postfix { offset: doff, len }, Slot::Postfix { offset: soff, len: slen }) => {
                debug_assert_eq!(len, slen, "mapping validation guarantees equal widths");
                output.postfix[doff..doff + len].copy_from_slice(&input.postfix[soff..soff + len]);
            }
            _ => unreachable!("mapping validation rejects lane/postfix mixes"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndp_ir::elaborate;
    use ndp_spec::parse;

    fn cfg(src: &str, name: &str) -> ndp_ir::PeConfig {
        elaborate(&parse(src).unwrap(), name).unwrap()
    }

    const POINTS: &str = "
        /* @autogen define parser P with input = Point3D, output = Point2D,
           mapping = { output.x = input.y, output.y = input.z } */
        typedef struct { uint32_t x, y, z; } Point3D;
        typedef struct { uint32_t x, y; } Point2D;
    ";

    #[test]
    fn unpack_extracts_little_endian_lanes() {
        let c = cfg(POINTS, "P");
        let codec = LayoutCodec::new(&c.input);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&7u32.to_le_bytes());
        bytes.extend_from_slice(&11u32.to_le_bytes());
        bytes.extend_from_slice(&13u32.to_le_bytes());
        let t = codec.unpack(&bytes);
        assert_eq!(t.lanes, vec![7, 11, 13]);
        assert!(t.postfix.is_empty());
    }

    #[test]
    fn pack_unpack_round_trip() {
        let c = cfg(POINTS, "P");
        let codec = LayoutCodec::new(&c.input);
        let bytes: Vec<u8> = (0..12).map(|i| i as u8 ^ 0x5A).collect();
        let t = codec.unpack(&bytes);
        let mut out = Vec::new();
        codec.pack_into(&t, &mut out);
        assert_eq!(out, bytes);
    }

    #[test]
    fn transform_projects_fields() {
        let c = cfg(POINTS, "P");
        let in_codec = LayoutCodec::new(&c.input);
        let out_codec = LayoutCodec::new(&c.output);
        let mut bytes = Vec::new();
        for v in [1u32, 2, 3] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let input = in_codec.unpack(&bytes);
        let mut output = Tuple::default();
        apply_transform(&c.transform, &in_codec, &out_codec, &input, &mut output);
        // output.x = input.y (2), output.y = input.z (3).
        assert_eq!(output.lanes, vec![2, 3]);
        let mut packed = Vec::new();
        out_codec.pack_into(&output, &mut packed);
        assert_eq!(&packed[..4], &2u32.to_le_bytes());
        assert_eq!(&packed[4..], &3u32.to_le_bytes());
    }

    const STRINGY: &str = "
        /* @autogen define parser S with input = Rec, output = Rec */
        typedef struct {
            uint64_t id;
            /* @string(prefix = 4) */ uint8_t name[12];
            uint16_t kind;
        } Rec;
    ";

    #[test]
    fn postfix_bytes_are_carried_opaque() {
        let c = cfg(STRINGY, "S");
        let codec = LayoutCodec::new(&c.input);
        assert_eq!(codec.tuple_bytes(), 8 + 12 + 2);
        assert_eq!(codec.lanes(), 3); // id, name.prefix, kind
        assert_eq!(codec.postfix_bytes(), 8);
        let mut bytes = vec![0u8; 22];
        bytes[8..20].copy_from_slice(b"rocksdb_sst!");
        let t = codec.unpack(&bytes);
        // Prefix "rock" little-endian in the lane.
        assert_eq!(t.lanes[1], u64::from(u32::from_le_bytes(*b"rock")));
        assert_eq!(&t.postfix, b"sdb_sst!");
        let mut out = Vec::new();
        codec.pack_into(&t, &mut out);
        assert_eq!(out, bytes);
    }

    #[test]
    fn identity_transform_preserves_everything() {
        let c = cfg(STRINGY, "S");
        let codec = LayoutCodec::new(&c.input);
        let bytes: Vec<u8> = (0..22u8).collect();
        let input = codec.unpack(&bytes);
        let mut output = Tuple::default();
        apply_transform(&c.transform, &codec, &codec, &input, &mut output);
        assert_eq!(output, input);
    }

    #[test]
    fn lane_prim_lookup() {
        let c = cfg(STRINGY, "S");
        let codec = LayoutCodec::new(&c.input);
        assert_eq!(codec.lane_prim(0), Some(PrimTy::U64));
        assert_eq!(codec.lane_prim(1), Some(PrimTy::U32));
        assert_eq!(codec.lane_prim(2), Some(PrimTy::U16));
        assert_eq!(codec.lane_prim(99), None);
    }

    #[test]
    fn read_field_raw_matches_unpack() {
        let c = cfg(STRINGY, "S");
        let codec = LayoutCodec::new(&c.input);
        let bytes: Vec<u8> = (0..22u8).map(|b| b.wrapping_mul(7)).collect();
        let t = codec.unpack(&bytes);
        assert_eq!(codec.read_field_raw(&bytes, 0), t.lanes[0]);
        assert_eq!(codec.read_field_raw(&bytes, 1), t.lanes[1]);
        assert_eq!(codec.read_field_raw(&bytes, 3), t.lanes[2]); // field 3 = kind (lane 2)
    }

    #[test]
    fn unpack_into_reuses_buffers() {
        let c = cfg(POINTS, "P");
        let codec = LayoutCodec::new(&c.input);
        let mut t = Tuple::default();
        let bytes = vec![0xFFu8; 12];
        codec.unpack_into(&bytes, &mut t);
        assert_eq!(t.lanes, vec![u64::from(u32::MAX); 3]);
        let bytes2 = vec![0u8; 12];
        codec.unpack_into(&bytes2, &mut t);
        assert_eq!(t.lanes, vec![0; 3]);
    }
}
