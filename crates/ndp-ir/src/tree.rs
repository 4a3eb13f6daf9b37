//! Resolved type trees.
//!
//! The contextual analysis operates on trees whose leaves are primitive
//! types and whose inner nodes are structs or arrays (paper, Sec. IV-B).
//! [`build_tree`] resolves named struct references from the AST into such a
//! tree, rejecting recursive definitions.

use crate::error::{IrError, IrResult};
use ndp_spec::{PrimTy, SpecModule, StructDef, TypeExpr};

/// A node of the resolved type tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum TypeNode {
    /// A primitive scalar leaf.
    Prim(PrimTy),
    /// A struct with named children, in declaration order.
    Struct(Vec<(String, TypeNode)>),
    /// A fixed-length array.
    Array(Box<TypeNode>, usize),
    /// A `@string`-annotated byte array, not yet split into prefix/postfix
    /// (the `resolve_strings` pass removes this variant).
    StrArray {
        /// Prefix length in bytes (1, 2, 4 or 8).
        prefix_bytes: u32,
        /// Total array length in bytes (prefix + postfix).
        total_bytes: usize,
    },
    /// An opaque string postfix produced by `resolve_strings`: carried
    /// through the datapath but never evaluated by predicates.
    Postfix {
        /// Postfix length in bytes.
        bytes: usize,
    },
}

impl TypeNode {
    /// Total packed width of this subtree in bits (the wire format is the
    /// packed little-endian concatenation of all leaves; see crate docs).
    #[cfg(test)]
    pub(crate) fn packed_bits(&self) -> u64 {
        match self {
            TypeNode::Prim(p) => u64::from(p.bits()),
            TypeNode::Struct(fields) => fields.iter().map(|(_, n)| n.packed_bits()).sum(),
            TypeNode::Array(elem, n) => elem.packed_bits() * (*n as u64),
            TypeNode::StrArray { total_bytes, .. } => *total_bytes as u64 * 8,
            TypeNode::Postfix { bytes } => *bytes as u64 * 8,
        }
    }

    /// True if the subtree still contains an [`TypeNode::Array`].
    pub(crate) fn contains_array(&self) -> bool {
        match self {
            TypeNode::Prim(_) | TypeNode::StrArray { .. } | TypeNode::Postfix { .. } => false,
            TypeNode::Array(..) => true,
            TypeNode::Struct(fields) => fields.iter().any(|(_, n)| n.contains_array()),
        }
    }

    /// True if the subtree still contains a [`TypeNode::StrArray`].
    pub(crate) fn contains_str_array(&self) -> bool {
        match self {
            TypeNode::Prim(_) | TypeNode::Postfix { .. } => false,
            TypeNode::StrArray { .. } => true,
            TypeNode::Array(elem, _) => elem.contains_str_array(),
            TypeNode::Struct(fields) => fields.iter().any(|(_, n)| n.contains_str_array()),
        }
    }
}

/// Resolve the struct named `name` from `module` into a [`TypeNode`] tree.
///
/// Named struct references are inlined; cycles are reported as
/// [`IrError::RecursiveType`].
pub(crate) fn build_tree(module: &SpecModule, name: &str, parser: &str) -> IrResult<TypeNode> {
    let def = module
        .find_struct(name)
        .ok_or_else(|| IrError::UnknownStruct { parser: parser.into(), name: name.into() })?;
    let mut stack = vec![name.to_string()];
    build_struct(module, def, parser, &mut stack)
}

fn build_struct(
    module: &SpecModule,
    def: &StructDef,
    parser: &str,
    stack: &mut Vec<String>,
) -> IrResult<TypeNode> {
    let mut fields = Vec::with_capacity(def.fields.len());
    for f in &def.fields {
        let base = match (&f.ty, f.string_prefix) {
            (TypeExpr::Prim(PrimTy::U8), Some(prefix)) => {
                // Validated by the parser: @string is only legal on a 1-D
                // uint8_t array, so dims has exactly one entry.
                let total = f.dims[0];
                if (prefix as usize) >= total {
                    // A prefix consuming the whole array degenerates to a
                    // plain integer field; model it as such.
                    TypeNode::StrArray { prefix_bytes: prefix, total_bytes: total }
                } else {
                    TypeNode::StrArray { prefix_bytes: prefix, total_bytes: total }
                }
            }
            (TypeExpr::Prim(p), None) => wrap_dims(TypeNode::Prim(*p), &f.dims),
            (TypeExpr::Named(inner_name), None) => {
                if stack.contains(inner_name) {
                    let mut path = stack.clone();
                    path.push(inner_name.clone());
                    return Err(IrError::RecursiveType { path });
                }
                let inner = module.find_struct(inner_name).ok_or_else(|| {
                    IrError::UnknownStruct { parser: parser.into(), name: inner_name.clone() }
                })?;
                stack.push(inner_name.clone());
                let node = build_struct(module, inner, parser, stack)?;
                stack.pop();
                wrap_dims(node, &f.dims)
            }
            (TypeExpr::Named(_), Some(_)) | (TypeExpr::Prim(_), Some(_)) => {
                // The parser guarantees @string only attaches to uint8_t
                // arrays; reaching this arm would be a frontend bug.
                unreachable!("@string on non-byte-array survived parsing")
            }
        };
        fields.push((f.name.clone(), base));
    }
    Ok(TypeNode::Struct(fields))
}

/// Apply array dimensions, outermost first: `u32 m[2][3]` becomes
/// `Array(Array(Prim, 3), 2)`.
fn wrap_dims(node: TypeNode, dims: &[usize]) -> TypeNode {
    dims.iter().rev().fold(node, |acc, &n| TypeNode::Array(Box::new(acc), n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndp_spec::parse;

    fn tree(src: &str, name: &str) -> IrResult<TypeNode> {
        let module = parse(src).unwrap();
        build_tree(&module, name, "test")
    }

    #[test]
    fn flat_struct_builds() {
        let t = tree("typedef struct { uint32_t x, y; } P;", "P").unwrap();
        assert_eq!(
            t,
            TypeNode::Struct(vec![
                ("x".into(), TypeNode::Prim(PrimTy::U32)),
                ("y".into(), TypeNode::Prim(PrimTy::U32)),
            ])
        );
        assert_eq!(t.packed_bits(), 64);
    }

    #[test]
    fn nested_struct_is_inlined() {
        let src = "
            typedef struct { uint32_t x, y; } Inner;
            typedef struct { Inner a; uint64_t id; } Outer;
        ";
        let t = tree(src, "Outer").unwrap();
        match &t {
            TypeNode::Struct(fields) => {
                assert!(matches!(&fields[0].1, TypeNode::Struct(inner) if inner.len() == 2));
                assert_eq!(fields[1].1, TypeNode::Prim(PrimTy::U64));
            }
            other => panic!("expected struct, got {other:?}"),
        }
        assert_eq!(t.packed_bits(), 128);
    }

    #[test]
    fn multi_dim_array_nests_outermost_first() {
        let t = tree("typedef struct { uint16_t m[2][3]; } P;", "P").unwrap();
        let TypeNode::Struct(fields) = &t else { panic!() };
        match &fields[0].1 {
            TypeNode::Array(inner, 2) => {
                assert!(matches!(&**inner, TypeNode::Array(_, 3)));
            }
            other => panic!("expected array, got {other:?}"),
        }
        assert_eq!(t.packed_bits(), 2 * 3 * 16);
        assert!(t.contains_array());
    }

    #[test]
    fn string_array_survives_as_str_array_node() {
        let src = "typedef struct { /* @string(prefix = 4) */ uint8_t s[32]; } P;";
        let t = tree(src, "P").unwrap();
        let TypeNode::Struct(fields) = &t else { panic!() };
        assert_eq!(fields[0].1, TypeNode::StrArray { prefix_bytes: 4, total_bytes: 32 });
        assert!(t.contains_str_array());
        assert_eq!(t.packed_bits(), 256);
    }

    #[test]
    fn unknown_struct_reference_is_an_error() {
        let err = tree("typedef struct { Missing m; } P;", "P").unwrap_err();
        assert!(matches!(err, IrError::UnknownStruct { .. }));
    }

    #[test]
    fn unknown_root_struct_is_an_error() {
        let err = tree("typedef struct { uint8_t b; } P;", "Q").unwrap_err();
        assert!(matches!(err, IrError::UnknownStruct { ref name, .. } if name == "Q"));
    }

    #[test]
    fn array_of_structs_resolves() {
        let src = "
            typedef struct { uint32_t x, y; } Pt;
            typedef struct { Pt pts[4]; } Poly;
        ";
        let t = tree(src, "Poly").unwrap();
        assert_eq!(t.packed_bits(), 4 * 64);
    }

    #[test]
    fn self_recursive_struct_is_rejected() {
        let err = tree("typedef struct { P inner; } P;", "P").unwrap_err();
        assert!(matches!(err, IrError::RecursiveType { .. }));
    }

    #[test]
    fn mutually_recursive_structs_are_rejected() {
        let src = "
            typedef struct { B b; } A;
            typedef struct { A a; } B;
        ";
        let err = tree(src, "B").unwrap_err();
        match err {
            IrError::RecursiveType { path } => assert!(path.len() >= 3),
            other => panic!("expected RecursiveType, got {other:?}"),
        }
    }
}
