//! Transformation passes over type trees.
//!
//! The paper's contextual analysis runs three tree transformations in
//! order: string resolution, array scalarization, and padding analysis
//! (the last one lives in [`crate::layout`] because it produces the final
//! flat layout rather than another tree).

use crate::tree::TypeNode;

/// Pass 1 — resolve `@string` byte arrays into a struct of a regular
/// prefix field followed by an opaque postfix (paper: "arrays that are
/// annotated to represent strings are transformed into structs, which
/// contain a prefix-field followed by an array which contains the rest of
/// the string").
///
/// A prefix covering the entire array degenerates to just the prefix field.
pub(crate) fn resolve_strings(node: TypeNode) -> TypeNode {
    match node {
        TypeNode::StrArray { prefix_bytes, total_bytes } => {
            let prefix_prim = prim_for_bytes(prefix_bytes);
            let postfix = total_bytes.saturating_sub(prefix_bytes as usize);
            if postfix == 0 {
                TypeNode::Struct(vec![("prefix".into(), TypeNode::Prim(prefix_prim))])
            } else {
                TypeNode::Struct(vec![
                    ("prefix".into(), TypeNode::Prim(prefix_prim)),
                    ("postfix".into(), TypeNode::Postfix { bytes: postfix }),
                ])
            }
        }
        TypeNode::Struct(fields) => {
            TypeNode::Struct(fields.into_iter().map(|(n, t)| (n, resolve_strings(t))).collect())
        }
        TypeNode::Array(elem, n) => TypeNode::Array(Box::new(resolve_strings(*elem)), n),
        leaf @ (TypeNode::Prim(_) | TypeNode::Postfix { .. }) => leaf,
    }
}

/// Pass 2 — scalarize arrays: `uint32_t v[2]` becomes
/// `struct { uint32_t v_0, v_1; }` with an identical data layout
/// (paper: "removes arrays completely from the tree, by flattening them
/// into structs with a corresponding sequence of scalar element fields").
///
/// Because element naming happens at the *field* level (the array's name
/// combines with the element index), this pass operates on struct nodes;
/// the root of a type tree is always a struct.
pub(crate) fn scalarize(node: TypeNode) -> TypeNode {
    match node {
        TypeNode::Struct(fields) => {
            let mut out = Vec::with_capacity(fields.len());
            for (name, child) in fields {
                scalarize_field(name, child, &mut out);
            }
            TypeNode::Struct(out)
        }
        other => other,
    }
}

fn scalarize_field(name: String, node: TypeNode, out: &mut Vec<(String, TypeNode)>) {
    match node {
        TypeNode::Array(elem, n) => {
            for i in 0..n {
                scalarize_field(format!("{name}_{i}"), (*elem).clone(), out);
            }
        }
        TypeNode::Struct(fields) => {
            let mut inner = Vec::with_capacity(fields.len());
            for (fname, child) in fields {
                scalarize_field(fname, child, &mut inner);
            }
            out.push((name, TypeNode::Struct(inner)));
        }
        leaf => out.push((name, leaf)),
    }
}

/// Select the unsigned primitive matching a string-prefix byte width.
fn prim_for_bytes(bytes: u32) -> ndp_spec::PrimTy {
    use ndp_spec::PrimTy;
    match bytes {
        1 => PrimTy::U8,
        2 => PrimTy::U16,
        4 => PrimTy::U32,
        8 => PrimTy::U64,
        other => unreachable!("parser enforces prefix in {{1,2,4,8}}, got {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndp_spec::PrimTy;

    fn prim(p: PrimTy) -> TypeNode {
        TypeNode::Prim(p)
    }

    #[test]
    fn string_resolution_splits_prefix_postfix() {
        let t = TypeNode::Struct(vec![(
            "title".into(),
            TypeNode::StrArray { prefix_bytes: 4, total_bytes: 32 },
        )]);
        let r = resolve_strings(t.clone());
        let TypeNode::Struct(fields) = &r else { panic!() };
        let TypeNode::Struct(inner) = &fields[0].1 else { panic!() };
        assert_eq!(inner[0], ("prefix".into(), prim(PrimTy::U32)));
        assert_eq!(inner[1], ("postfix".into(), TypeNode::Postfix { bytes: 28 }));
        // Layout-preserving: same total width.
        assert_eq!(r.packed_bits(), t.packed_bits());
    }

    #[test]
    fn full_width_prefix_degenerates_to_plain_field() {
        let t = TypeNode::StrArray { prefix_bytes: 8, total_bytes: 8 };
        let r = resolve_strings(t);
        let TypeNode::Struct(fields) = &r else { panic!() };
        assert_eq!(fields.len(), 1);
        assert_eq!(fields[0].1, prim(PrimTy::U64));
    }

    #[test]
    fn scalarize_flattens_1d_array() {
        let t =
            TypeNode::Struct(vec![("v".into(), TypeNode::Array(Box::new(prim(PrimTy::U32)), 2))]);
        let r = scalarize(t.clone());
        assert_eq!(
            r,
            TypeNode::Struct(vec![
                ("v_0".into(), prim(PrimTy::U32)),
                ("v_1".into(), prim(PrimTy::U32)),
            ])
        );
        assert_eq!(r.packed_bits(), t.packed_bits());
        assert!(!r.contains_array());
    }

    #[test]
    fn scalarize_flattens_multi_dim_row_major() {
        let t = TypeNode::Struct(vec![(
            "m".into(),
            TypeNode::Array(Box::new(TypeNode::Array(Box::new(prim(PrimTy::U8)), 2)), 3),
        )]);
        let r = scalarize(t);
        let TypeNode::Struct(fields) = &r else { panic!() };
        let names: Vec<&str> = fields.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["m_0_0", "m_0_1", "m_1_0", "m_1_1", "m_2_0", "m_2_1"]);
    }

    #[test]
    fn scalarize_array_of_structs_keeps_nesting() {
        let pt = TypeNode::Struct(vec![
            ("x".into(), prim(PrimTy::U32)),
            ("y".into(), prim(PrimTy::U32)),
        ]);
        let t = TypeNode::Struct(vec![("pts".into(), TypeNode::Array(Box::new(pt.clone()), 2))]);
        let r = scalarize(t);
        let TypeNode::Struct(fields) = &r else { panic!() };
        assert_eq!(fields.len(), 2);
        assert_eq!(fields[0].0, "pts_0");
        assert_eq!(fields[0].1, pt);
        assert_eq!(fields[1].0, "pts_1");
    }

    #[test]
    fn passes_are_idempotent_on_clean_trees() {
        let t = TypeNode::Struct(vec![
            ("a".into(), prim(PrimTy::U64)),
            ("b".into(), TypeNode::Postfix { bytes: 12 }),
        ]);
        assert_eq!(resolve_strings(t.clone()), t);
        assert_eq!(scalarize(t.clone()), t);
    }

    #[test]
    fn string_inside_array_is_resolved() {
        // An array of annotated strings: resolve first, then scalarize.
        let t = TypeNode::Struct(vec![(
            "tags".into(),
            TypeNode::Array(Box::new(TypeNode::StrArray { prefix_bytes: 2, total_bytes: 8 }), 2),
        )]);
        let r = scalarize(resolve_strings(t));
        let TypeNode::Struct(fields) = &r else { panic!() };
        assert_eq!(fields.len(), 2);
        let TypeNode::Struct(inner) = &fields[0].1 else { panic!() };
        assert_eq!(inner[0].1, prim(PrimTy::U16));
        assert_eq!(inner[1].1, TypeNode::Postfix { bytes: 6 });
    }
}
