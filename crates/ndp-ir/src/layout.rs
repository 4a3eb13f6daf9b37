//! Padded tuple layouts.
//!
//! The final contextual-analysis step (paper, Sec. IV-B): determine the
//! largest *relevant* field — a field usable in filter predicates, i.e.
//! every primitive leaf except string postfixes — and pad all relevant
//! fields to that width so a single comparator unit can process any of
//! them. The layout records, for every leaf,
//!
//! * its **packed** position (the wire format in DRAM/flash: packed
//!   little-endian concatenation, as produced by the application writing
//!   `__attribute__((packed))` structs into the KV-store), and
//! * its **lane** in the padded internal representation that flows between
//!   the Tuple Input Buffer, the Filtering Units and the Data
//!   Transformation Unit. Relevant fields occupy one comparator-width lane
//!   each; postfixes are carried in a separate opaque vector (paper: "a
//!   second vector contains all of the disregarded string-postfixes").

use crate::error::{IrError, IrResult};
use crate::tree::TypeNode;
use ndp_spec::PrimTy;

/// One leaf of the flattened tuple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldLayout {
    /// Dotted, scalarized path (`pos.x`, `coords_1`, `title.prefix`).
    pub path: String,
    /// Primitive type; `None` for opaque string postfixes.
    pub prim: Option<PrimTy>,
    /// Bit offset in the packed wire format.
    pub offset_bits: u64,
    /// Width in bits in the packed wire format.
    pub width_bits: u32,
    /// Comparator lane index; `None` for postfixes.
    pub lane: Option<u32>,
}

impl FieldLayout {
    /// True if the field can be used in filter predicates.
    pub(crate) fn relevant(&self) -> bool {
        self.lane.is_some()
    }
}

/// The complete layout of one tuple type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TupleLayout {
    /// Name of the originating struct type.
    pub name: String,
    /// All leaves in wire order.
    pub fields: Vec<FieldLayout>,
    /// Packed tuple width in bits (= bytes × 8; always byte-aligned).
    pub tuple_bits: u64,
    /// Comparator lane width: the width of the largest relevant field,
    /// to which all relevant fields are padded.
    pub lane_bits: u32,
    /// Number of comparator lanes (= number of relevant fields).
    pub lanes: u32,
    /// Total bits of opaque postfix payload carried alongside the lanes.
    pub postfix_bits: u64,
}

impl TupleLayout {
    /// Packed tuple size in bytes.
    pub fn tuple_bytes(&self) -> u64 {
        self.tuple_bits / 8
    }

    /// Width of the padded internal representation in bits:
    /// `lanes × lane_bits` plus the carried postfix payload.
    pub fn padded_bits(&self) -> u64 {
        u64::from(self.lanes) * u64::from(self.lane_bits) + self.postfix_bits
    }

    /// Look up a field by its dotted path.
    pub fn field(&self, path: &str) -> Option<&FieldLayout> {
        self.fields.iter().find(|f| f.path == path)
    }

    /// Index of a field by its dotted path.
    pub(crate) fn field_index(&self, path: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.path == path)
    }

    /// Iterate over the relevant (filterable) fields in lane order.
    ///
    /// Lanes are assigned in wire order, so this equals declaration order.
    pub fn relevant_fields(&self) -> impl Iterator<Item = &FieldLayout> {
        self.fields.iter().filter(|f| f.relevant())
    }
}

/// Compute the padded layout of a fully resolved, scalarized tree.
///
/// `node` must be the root struct after `resolve_strings` and `scalarize`
/// (no `Array`/`StrArray` nodes remain); this is an internal contract of
/// the elaboration pipeline, violated only by a pipeline bug.
pub(crate) fn compute_layout(name: &str, node: &TypeNode) -> IrResult<TupleLayout> {
    debug_assert!(!node.contains_array(), "layout requires a scalarized tree");
    debug_assert!(!node.contains_str_array(), "layout requires resolved strings");

    let mut fields = Vec::new();
    let mut offset = 0u64;
    flatten(node, String::new(), &mut offset, &mut fields);

    let lane_bits = fields
        .iter()
        .filter_map(|f| f.prim.map(PrimTy::bits))
        .max()
        .ok_or_else(|| IrError::NoRelevantFields { strct: name.to_string() })?;

    let mut lanes = 0u32;
    let mut postfix_bits = 0u64;
    for f in &mut fields {
        if f.prim.is_some() {
            f.lane = Some(lanes);
            lanes += 1;
        } else {
            postfix_bits += u64::from(f.width_bits);
        }
    }

    Ok(TupleLayout {
        name: name.to_string(),
        fields,
        tuple_bits: offset,
        lane_bits,
        lanes,
        postfix_bits,
    })
}

fn flatten(node: &TypeNode, prefix: String, offset: &mut u64, out: &mut Vec<FieldLayout>) {
    match node {
        TypeNode::Struct(children) => {
            for (fname, child) in children {
                let path =
                    if prefix.is_empty() { fname.clone() } else { format!("{prefix}.{fname}") };
                flatten(child, path, offset, out);
            }
        }
        TypeNode::Prim(p) => {
            out.push(FieldLayout {
                path: prefix,
                prim: Some(*p),
                offset_bits: *offset,
                width_bits: p.bits(),
                lane: None,
            });
            *offset += u64::from(p.bits());
        }
        TypeNode::Postfix { bytes } => {
            let bits = (*bytes as u64 * 8) as u32;
            out.push(FieldLayout {
                path: prefix,
                prim: None,
                offset_bits: *offset,
                width_bits: bits,
                lane: None,
            });
            *offset += u64::from(bits);
        }
        TypeNode::Array(..) | TypeNode::StrArray { .. } => {
            unreachable!("layout requires a scalarized, string-resolved tree")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::{resolve_strings, scalarize};
    use crate::tree::build_tree;
    use ndp_spec::parse;

    fn layout(src: &str, name: &str) -> TupleLayout {
        let m = parse(src).unwrap();
        let t = scalarize(resolve_strings(build_tree(&m, name, "test").unwrap()));
        compute_layout(name, &t).unwrap()
    }

    #[test]
    fn paper_point_example_layout() {
        // The paper's running example: x, y, z as 32-bit integers; the
        // hardware knows the first 32 bits encode x, the next 32 y, etc.
        let l = layout("typedef struct { uint32_t x, y, z; } Point;", "Point");
        assert_eq!(l.tuple_bits, 96);
        assert_eq!(l.lane_bits, 32);
        assert_eq!(l.lanes, 3);
        assert_eq!(l.postfix_bits, 0);
        assert_eq!(l.field("x").unwrap().offset_bits, 0);
        assert_eq!(l.field("y").unwrap().offset_bits, 32);
        assert_eq!(l.field("z").unwrap().offset_bits, 64);
        assert_eq!(l.padded_bits(), 96);
    }

    #[test]
    fn mixed_widths_pad_to_largest_relevant() {
        let l = layout("typedef struct { uint64_t id; uint8_t tag; uint16_t kind; } R;", "R");
        assert_eq!(l.lane_bits, 64);
        assert_eq!(l.lanes, 3);
        // Padded representation: 3 lanes of 64 bit although the packed
        // tuple is only 88 bits.
        assert_eq!(l.tuple_bits, 88);
        assert_eq!(l.padded_bits(), 192);
    }

    #[test]
    fn string_postfix_is_not_a_lane_and_not_padded() {
        let src = "typedef struct {
            uint64_t id;
            /* @string(prefix = 4) */ uint8_t title[36];
        } Paper;";
        let l = layout(src, "Paper");
        // Leaves: id, title.prefix (u32), title.postfix (32 bytes opaque).
        assert_eq!(l.lanes, 2);
        assert_eq!(l.lane_bits, 64);
        assert_eq!(l.postfix_bits, 32 * 8);
        assert_eq!(l.tuple_bits, 64 + 32 + 256);
        assert_eq!(l.padded_bits(), 2 * 64 + 256);
        let post = l.field("title.postfix").unwrap();
        assert!(!post.relevant());
        assert_eq!(post.offset_bits, 96);
    }

    #[test]
    fn lanes_are_assigned_in_wire_order() {
        let l = layout("typedef struct { uint8_t a; uint32_t b; uint8_t c; } T;", "T");
        let lanes: Vec<(String, u32)> =
            l.relevant_fields().map(|f| (f.path.clone(), f.lane.unwrap())).collect();
        assert_eq!(lanes, vec![("a".into(), 0), ("b".into(), 1), ("c".into(), 2)]);
    }

    #[test]
    fn scalarized_array_fields_get_individual_lanes() {
        let l = layout("typedef struct { uint32_t v[4]; } V;", "V");
        assert_eq!(l.lanes, 4);
        assert_eq!(l.field("v_2").unwrap().offset_bits, 64);
    }

    #[test]
    fn nested_struct_paths_are_dotted() {
        let src = "
            typedef struct { uint32_t x, y; } Pt;
            typedef struct { Pt pos; uint64_t id; } Node;
        ";
        let l = layout(src, "Node");
        assert!(l.field("pos.x").is_some());
        assert!(l.field("pos.y").is_some());
        assert_eq!(l.field("id").unwrap().offset_bits, 64);
        assert_eq!(l.lane_bits, 64);
    }

    #[test]
    fn offsets_are_contiguous_and_non_overlapping() {
        let src = "typedef struct {
            uint8_t a; uint16_t b; uint32_t c; uint64_t d;
            /* @string(prefix = 2) */ uint8_t s[10];
        } T;";
        let l = layout(src, "T");
        let mut expected = 0u64;
        for f in &l.fields {
            assert_eq!(f.offset_bits, expected, "field {} misplaced", f.path);
            expected += u64::from(f.width_bits);
        }
        assert_eq!(expected, l.tuple_bits);
    }

    #[test]
    fn postfix_only_struct_is_rejected() {
        // Construct directly: a struct whose only leaf is a postfix cannot
        // come from the parser (prefix >= 1 always), so build the tree by
        // hand to cover the error path.
        let t = TypeNode::Struct(vec![("s".into(), TypeNode::Postfix { bytes: 16 })]);
        let err = compute_layout("T", &t).unwrap_err();
        assert!(matches!(err, IrError::NoRelevantFields { .. }));
    }

    #[test]
    fn field_index_matches_field() {
        let l = layout("typedef struct { uint32_t x, y; } P;", "P");
        assert_eq!(l.field_index("y"), Some(1));
        assert_eq!(l.field_index("nope"), None);
    }
}
