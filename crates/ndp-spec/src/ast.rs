//! Abstract syntax tree of the specification language.

use crate::lexer::Span;
use std::fmt;

/// Primitive scalar types suitable for hardware processing
/// (paper, Sec. IV-B: integers and single/double-precision floats).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrimTy {
    U8,
    U16,
    U32,
    U64,
    I8,
    I16,
    I32,
    I64,
    F32,
    F64,
}

impl PrimTy {
    /// Width of the type in bits.
    pub fn bits(self) -> u32 {
        match self {
            PrimTy::U8 | PrimTy::I8 => 8,
            PrimTy::U16 | PrimTy::I16 => 16,
            PrimTy::U32 | PrimTy::I32 | PrimTy::F32 => 32,
            PrimTy::U64 | PrimTy::I64 | PrimTy::F64 => 64,
        }
    }

    /// Width of the type in bytes.
    pub fn bytes(self) -> u32 {
        self.bits() / 8
    }

    /// True for signed integer types.
    pub fn is_signed(self) -> bool {
        matches!(self, PrimTy::I8 | PrimTy::I16 | PrimTy::I32 | PrimTy::I64)
    }

    /// True for IEEE-754 floating-point types.
    pub fn is_float(self) -> bool {
        matches!(self, PrimTy::F32 | PrimTy::F64)
    }

    /// Parse a C type name (`uint32_t`, `float`, ...).
    pub(crate) fn from_c_name(name: &str) -> Option<Self> {
        Some(match name {
            "uint8_t" => PrimTy::U8,
            "uint16_t" => PrimTy::U16,
            "uint32_t" => PrimTy::U32,
            "uint64_t" => PrimTy::U64,
            "int8_t" => PrimTy::I8,
            "int16_t" => PrimTy::I16,
            "int32_t" => PrimTy::I32,
            "int64_t" => PrimTy::I64,
            "float" => PrimTy::F32,
            "double" => PrimTy::F64,
            _ => return None,
        })
    }

    /// The canonical C spelling of the type.
    pub fn c_name(self) -> &'static str {
        match self {
            PrimTy::U8 => "uint8_t",
            PrimTy::U16 => "uint16_t",
            PrimTy::U32 => "uint32_t",
            PrimTy::U64 => "uint64_t",
            PrimTy::I8 => "int8_t",
            PrimTy::I16 => "int16_t",
            PrimTy::I32 => "int32_t",
            PrimTy::I64 => "int64_t",
            PrimTy::F32 => "float",
            PrimTy::F64 => "double",
        }
    }
}

impl fmt::Display for PrimTy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.c_name())
    }
}

/// A field's type: either a primitive or a reference to a named struct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeExpr {
    Prim(PrimTy),
    Named(String),
}

/// One declared field (one declarator of a possibly multi-declarator line).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDecl {
    /// Field name.
    pub name: String,
    /// Element type (before array dimensions are applied).
    pub ty: TypeExpr,
    /// Array dimensions, outermost first; empty for scalars.
    pub dims: Vec<usize>,
    /// If `Some(n)`, the field was annotated `@string(prefix = n)`:
    /// the first `n` bytes are a filterable prefix, the rest an opaque
    /// postfix (paper, Sec. IV-B).
    pub string_prefix: Option<u32>,
    /// Source location of the declarator.
    pub span: Span,
}

/// A `typedef struct { ... } Name;` definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructDef {
    pub name: String,
    pub fields: Vec<FieldDecl>,
    pub span: Span,
}

/// A dotted field path as used in mapping annotations, e.g. `pos.x`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FieldPath(pub Vec<String>);

impl FieldPath {
    /// Join the path segments with dots.
    pub fn dotted(&self) -> String {
        self.0.join(".")
    }
}

impl fmt::Display for FieldPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.dotted())
    }
}

/// One `output.path = input.path` entry of a mapping annotation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MappingEntry {
    pub output: FieldPath,
    pub input: FieldPath,
    pub span: Span,
}

/// An `@autogen define parser ...` processing-element specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParserSpec {
    /// PE name (`Point3DTo2D` in the paper's example).
    pub name: String,
    /// Block granularity in KiB at which data is loaded and processed
    /// (`chunksize = 32` means 32 KiB blocks, matching the paper).
    pub chunk_kib: u32,
    /// Name of the input struct type.
    pub input: String,
    /// Name of the output struct type.
    pub output: String,
    /// Explicit output←input field mappings (paper's case 3).
    pub mapping: Vec<MappingEntry>,
    /// Number of chained filtering units (extension over \[1\]; default 1).
    pub stages: u32,
    /// Comparator operator set; `None` selects the paper's standard set
    /// (`!=, ==, >, >=, <, <=, nop`).
    pub operators: Option<Vec<String>>,
    /// Aggregation reductions to generate hardware for (extension
    /// implementing the paper's outlook on compute-intensive NDP tasks);
    /// `None` generates no aggregation unit.
    pub aggregates: Option<Vec<String>>,
    /// Source location of the annotation.
    pub span: Span,
}

/// A parsed specification file: struct typedefs plus parser definitions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpecModule {
    pub structs: Vec<StructDef>,
    pub parsers: Vec<ParserSpec>,
}

impl SpecModule {
    /// Look up a struct definition by name.
    pub fn find_struct(&self, name: &str) -> Option<&StructDef> {
        self.structs.iter().find(|s| s.name == name)
    }

    /// Look up a parser specification by name.
    pub fn find_parser(&self, name: &str) -> Option<&ParserSpec> {
        self.parsers.iter().find(|p| p.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prim_widths() {
        assert_eq!(PrimTy::U8.bits(), 8);
        assert_eq!(PrimTy::I16.bits(), 16);
        assert_eq!(PrimTy::F32.bits(), 32);
        assert_eq!(PrimTy::F64.bits(), 64);
        assert_eq!(PrimTy::U64.bytes(), 8);
    }

    #[test]
    fn prim_classification() {
        assert!(PrimTy::I32.is_signed());
        assert!(!PrimTy::U32.is_signed());
        assert!(PrimTy::F64.is_float());
        assert!(!PrimTy::F64.is_signed());
    }

    #[test]
    fn c_name_round_trip() {
        for ty in [
            PrimTy::U8,
            PrimTy::U16,
            PrimTy::U32,
            PrimTy::U64,
            PrimTy::I8,
            PrimTy::I16,
            PrimTy::I32,
            PrimTy::I64,
            PrimTy::F32,
            PrimTy::F64,
        ] {
            assert_eq!(PrimTy::from_c_name(ty.c_name()), Some(ty));
        }
        assert_eq!(PrimTy::from_c_name("size_t"), None);
    }

    #[test]
    fn field_path_display() {
        let p = FieldPath(vec!["pos".into(), "x".into()]);
        assert_eq!(p.to_string(), "pos.x");
        assert_eq!(p.dotted(), "pos.x");
    }

    #[test]
    fn module_lookup() {
        let m = SpecModule {
            structs: vec![StructDef { name: "A".into(), fields: vec![], span: Span::default() }],
            parsers: vec![],
        };
        assert!(m.find_struct("A").is_some());
        assert!(m.find_struct("B").is_none());
        assert!(m.find_parser("A").is_none());
    }
}
