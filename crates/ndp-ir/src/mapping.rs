//! Derivation of the Data Transformation Unit's field mapping.
//!
//! The paper distinguishes three cases (Sec. IV-B, "Data Transformation
//! Unit"):
//!
//! 1. input and output are the same struct type → tuples pass through;
//! 2. every output field also exists in the input → the mapping is derived
//!    automatically by path;
//! 3. the output contains fields absent from the input → the user must
//!    provide explicit `mapping = { output.a = input.b, ... }` annotations.
//!
//! The derived [`TransformPlan`] is a list of field moves executed by the
//! generated transformation hardware (and by its software twin).

use crate::error::{IrError, IrResult};
use crate::layout::TupleLayout;
use ndp_spec::MappingEntry;

/// One output-field assignment: `output.fields[dst] = input.fields[src]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldMove {
    /// Index into the *output* layout's `fields`.
    pub dst: usize,
    /// Index into the *input* layout's `fields`.
    pub src: usize,
}

/// A complete, validated transformation: every output field is covered
/// exactly once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransformPlan {
    /// Field moves in output wire order.
    pub moves: Vec<FieldMove>,
    /// True if this is the paper's case 1 (identity pass-through).
    pub(crate) identity: bool,
}

/// Derive the transformation plan from input/output layouts plus the
/// user-provided mapping entries.
pub(crate) fn derive_transform(
    parser: &str,
    input: &TupleLayout,
    output: &TupleLayout,
    user_mapping: &[MappingEntry],
) -> IrResult<TransformPlan> {
    // Case 1: identical struct type → pure pass-through. Explicit user
    // mappings still override individual fields if given.
    if input.name == output.name && user_mapping.is_empty() {
        let moves = (0..output.fields.len()).map(|i| FieldMove { dst: i, src: i }).collect();
        return Ok(TransformPlan { moves, identity: true });
    }

    // Index user mappings by output path, rejecting duplicates up front.
    let mut explicit: Vec<(usize, usize)> = Vec::with_capacity(user_mapping.len());
    for entry in user_mapping {
        let out_path = entry.output.dotted();
        let in_path = entry.input.dotted();
        let dst = output.field_index(&out_path).ok_or_else(|| IrError::UnknownFieldPath {
            parser: parser.into(),
            path: out_path.clone(),
            side: "output",
        })?;
        let src = input.field_index(&in_path).ok_or_else(|| IrError::UnknownFieldPath {
            parser: parser.into(),
            path: in_path.clone(),
            side: "input",
        })?;
        if explicit.iter().any(|&(d, _)| d == dst) {
            return Err(IrError::DuplicateMapping { parser: parser.into(), field: out_path });
        }
        let (of, inf) = (&output.fields[dst], &input.fields[src]);
        if of.prim.is_none() {
            return Err(IrError::MappingTargetsPostfix { parser: parser.into(), field: out_path });
        }
        if of.width_bits != inf.width_bits {
            return Err(IrError::WidthMismatch {
                parser: parser.into(),
                output: out_path,
                input: in_path,
                out_bits: of.width_bits,
                in_bits: inf.width_bits,
            });
        }
        explicit.push((dst, src));
    }

    // Cases 2 and 3: walk output fields, preferring explicit entries, then
    // automatic by-path matching.
    let mut moves = Vec::with_capacity(output.fields.len());
    for (dst, of) in output.fields.iter().enumerate() {
        let src = if let Some(&(_, s)) = explicit.iter().find(|&&(d, _)| d == dst) {
            s
        } else if let Some(s) = input.field_index(&of.path) {
            let inf = &input.fields[s];
            if inf.width_bits != of.width_bits {
                return Err(IrError::WidthMismatch {
                    parser: parser.into(),
                    output: of.path.clone(),
                    input: inf.path.clone(),
                    out_bits: of.width_bits,
                    in_bits: inf.width_bits,
                });
            }
            s
        } else {
            return Err(IrError::UnmappedOutputField {
                parser: parser.into(),
                field: of.path.clone(),
            });
        };
        moves.push(FieldMove { dst, src });
    }

    let identity = input.name == output.name
        && moves.iter().all(|m| m.dst == m.src)
        && moves.len() == input.fields.len();
    Ok(TransformPlan { moves, identity })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::compute_layout;
    use crate::passes::{resolve_strings, scalarize};
    use crate::tree::build_tree;
    use ndp_spec::{parse, SpecModule};

    fn layouts(src: &str, a: &str, b: &str) -> (SpecModule, TupleLayout, TupleLayout) {
        let m = parse(src).unwrap();
        let la = compute_layout(a, &scalarize(resolve_strings(build_tree(&m, a, "t").unwrap())))
            .unwrap();
        let lb = compute_layout(b, &scalarize(resolve_strings(build_tree(&m, b, "t").unwrap())))
            .unwrap();
        (m, la, lb)
    }

    #[test]
    fn case1_identity_pass_through() {
        let (_, a, b) = layouts("typedef struct { uint32_t x, y; } A;", "A", "A");
        let plan = derive_transform("p", &a, &b, &[]).unwrap();
        assert!(plan.identity);
        assert_eq!(plan.moves, vec![FieldMove { dst: 0, src: 0 }, FieldMove { dst: 1, src: 1 }]);
    }

    #[test]
    fn case2_automatic_subset_projection() {
        let src = "
            typedef struct { uint32_t x, y, z; } A;
            typedef struct { uint32_t z, x; } B;
        ";
        let (_, a, b) = layouts(src, "A", "B");
        let plan = derive_transform("p", &a, &b, &[]).unwrap();
        assert!(!plan.identity);
        // Output order: z (from input lane 2), x (from input lane 0).
        assert_eq!(plan.moves, vec![FieldMove { dst: 0, src: 2 }, FieldMove { dst: 1, src: 0 }]);
    }

    #[test]
    fn case3_requires_user_mapping() {
        let src = "
            typedef struct { uint32_t x, y, z; } Point3D;
            typedef struct { uint32_t u, v; } Point2D;
        ";
        let (_, a, b) = layouts(src, "Point3D", "Point2D");
        let err = derive_transform("p", &a, &b, &[]).unwrap_err();
        assert!(matches!(err, IrError::UnmappedOutputField { ref field, .. } if field == "u"));
    }

    #[test]
    fn paper_fig4_mapping_resolves() {
        // Fig. 4: Point3D {x,y,z} → Point2D {x,y} with output.x = input.y,
        // output.y = input.z (projection discarding x).
        let src = "
            /* @autogen define parser Point3DTo2D with chunksize = 32,
               input = Point3D, output = Point2D,
               mapping = { output.x = input.y, output.y = input.z } */
            typedef struct { uint32_t x, y, z; } Point3D;
            typedef struct { uint32_t x, y; } Point2D;
        ";
        let (m, a, b) = layouts(src, "Point3D", "Point2D");
        let plan = derive_transform("Point3DTo2D", &a, &b, &m.parsers[0].mapping).unwrap();
        assert_eq!(plan.moves, vec![FieldMove { dst: 0, src: 1 }, FieldMove { dst: 1, src: 2 }]);
        assert!(!plan.identity);
    }

    #[test]
    fn fig4_without_mapping_defaults_to_case2_by_name() {
        // The paper: "Without a mapping, the toolflow would default to the
        // second case and use x and y for the projection."
        let src = "
            typedef struct { uint32_t x, y, z; } Point3D;
            typedef struct { uint32_t x, y; } Point2D;
        ";
        let (_, a, b) = layouts(src, "Point3D", "Point2D");
        let plan = derive_transform("p", &a, &b, &[]).unwrap();
        assert_eq!(plan.moves, vec![FieldMove { dst: 0, src: 0 }, FieldMove { dst: 1, src: 1 }]);
    }

    #[test]
    fn explicit_mapping_overrides_name_match() {
        let src = "
            /* @autogen define parser P with input = A, output = B,
               mapping = { output.x = input.y } */
            typedef struct { uint32_t x, y; } A;
            typedef struct { uint32_t x; } B;
        ";
        let (m, a, b) = layouts(src, "A", "B");
        let plan = derive_transform("P", &a, &b, &m.parsers[0].mapping).unwrap();
        assert_eq!(plan.moves, vec![FieldMove { dst: 0, src: 1 }]);
    }

    #[test]
    fn width_mismatch_rejected_for_explicit_mapping() {
        let src = "
            /* @autogen define parser P with input = A, output = B,
               mapping = { output.w = input.n } */
            typedef struct { uint8_t n; } A;
            typedef struct { uint64_t w; } B;
        ";
        let (m, a, b) = layouts(src, "A", "B");
        let err = derive_transform("P", &a, &b, &m.parsers[0].mapping).unwrap_err();
        assert!(matches!(err, IrError::WidthMismatch { out_bits: 64, in_bits: 8, .. }));
    }

    #[test]
    fn width_mismatch_rejected_for_automatic_match() {
        let src = "
            typedef struct { uint8_t x; } A;
            typedef struct { uint64_t x; } B;
        ";
        let (_, a, b) = layouts(src, "A", "B");
        let err = derive_transform("p", &a, &b, &[]).unwrap_err();
        assert!(matches!(err, IrError::WidthMismatch { .. }));
    }

    #[test]
    fn duplicate_output_mapping_rejected() {
        let src = "
            /* @autogen define parser P with input = A, output = B,
               mapping = { output.x = input.a, output.x = input.b } */
            typedef struct { uint32_t a, b; } A;
            typedef struct { uint32_t x; } B;
        ";
        let (m, a, b) = layouts(src, "A", "B");
        let err = derive_transform("P", &a, &b, &m.parsers[0].mapping).unwrap_err();
        assert!(matches!(err, IrError::DuplicateMapping { .. }));
    }

    #[test]
    fn unknown_paths_rejected_with_side() {
        let src = "
            /* @autogen define parser P with input = A, output = B,
               mapping = { output.nope = input.a } */
            typedef struct { uint32_t a; } A;
            typedef struct { uint32_t x; } B;
        ";
        let (m, a, b) = layouts(src, "A", "B");
        let err = derive_transform("P", &a, &b, &m.parsers[0].mapping).unwrap_err();
        assert!(matches!(err, IrError::UnknownFieldPath { side: "output", .. }));
    }

    #[test]
    fn postfix_fields_auto_map_by_path() {
        // Transform that keeps the string (prefix + postfix) and drops a
        // meta-data field — the paper's "discarding RocksDB meta-data" use.
        let src = "
            typedef struct { uint64_t meta; /* @string(prefix = 4) */ uint8_t s[12]; } A;
            typedef struct { /* @string(prefix = 4) */ uint8_t s[12]; } B;
        ";
        let (_, a, b) = layouts(src, "A", "B");
        let plan = derive_transform("p", &a, &b, &[]).unwrap();
        // Output fields: s.prefix, s.postfix — mapped from input indices 1, 2.
        assert_eq!(plan.moves, vec![FieldMove { dst: 0, src: 1 }, FieldMove { dst: 1, src: 2 }]);
    }

    #[test]
    fn mapping_cannot_target_postfix() {
        let src = "
            /* @autogen define parser P with input = A, output = B,
               mapping = { output.s.postfix = input.s.postfix } */
            typedef struct { /* @string(prefix = 4) */ uint8_t s[12]; } A;
            typedef struct { /* @string(prefix = 4) */ uint8_t s[12]; } B;
        ";
        let (m, a, b) = layouts(src, "A", "B");
        let err = derive_transform("P", &a, &b, &m.parsers[0].mapping).unwrap_err();
        assert!(matches!(err, IrError::MappingTargetsPostfix { .. }));
    }
}
