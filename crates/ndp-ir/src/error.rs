//! Errors produced during contextual analysis.

use std::fmt;

/// Result alias for IR-level operations.
pub type IrResult<T> = Result<T, IrError>;

/// Semantic errors discovered while elaborating a specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IrError {
    /// A parser annotation references a struct that was never defined.
    UnknownStruct { parser: String, name: String },
    /// No parser with this name exists in the module.
    UnknownParser(String),
    /// Struct definitions reference each other cyclically.
    RecursiveType { path: Vec<String> },
    /// An output field could not be matched to any input field and no user
    /// mapping was given (the paper's case 3 requires annotations).
    UnmappedOutputField { parser: String, field: String },
    /// A mapping entry references a field path that does not exist.
    UnknownFieldPath { parser: String, path: String, side: &'static str },
    /// A mapping pairs fields of different widths.
    WidthMismatch { parser: String, output: String, input: String, out_bits: u32, in_bits: u32 },
    /// Two mapping entries target the same output field.
    DuplicateMapping { parser: String, field: String },
    /// A mapping entry targets an opaque string postfix.
    MappingTargetsPostfix { parser: String, field: String },
    /// The tuple does not fit the processing block.
    TupleLargerThanChunk { parser: String, tuple_bytes: u64, chunk_bytes: u64 },
    /// An operator name in `operators = {...}` is not a standard operator
    /// and was not registered as a custom operator.
    UnknownOperator { parser: String, name: String },
    /// A struct has no relevant (filterable) field at all.
    NoRelevantFields { strct: String },
    /// The configuration requests a capability the hand-crafted baseline
    /// architecture of \[1\] does not provide.
    UnsupportedByBaseline { parser: String, reason: String },
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::UnknownStruct { parser, name } => {
                write!(f, "parser `{parser}` references unknown struct `{name}`")
            }
            IrError::UnknownParser(name) => write!(f, "no parser named `{name}` in module"),
            IrError::RecursiveType { path } => {
                write!(f, "recursive struct definition: {}", path.join(" -> "))
            }
            IrError::UnmappedOutputField { parser, field } => write!(
                f,
                "parser `{parser}`: output field `{field}` has no matching input field; \
                 add a mapping annotation (paper case 3)"
            ),
            IrError::UnknownFieldPath { parser, path, side } => {
                write!(f, "parser `{parser}`: unknown {side} field path `{path}`")
            }
            IrError::WidthMismatch { parser, output, input, out_bits, in_bits } => write!(
                f,
                "parser `{parser}`: mapping `{output}` ({out_bits} bit) = `{input}` \
                 ({in_bits} bit) pairs fields of different widths"
            ),
            IrError::DuplicateMapping { parser, field } => {
                write!(f, "parser `{parser}`: output field `{field}` mapped twice")
            }
            IrError::MappingTargetsPostfix { parser, field } => write!(
                f,
                "parser `{parser}`: `{field}` is an opaque string postfix and cannot be mapped"
            ),
            IrError::TupleLargerThanChunk { parser, tuple_bytes, chunk_bytes } => write!(
                f,
                "parser `{parser}`: tuple of {tuple_bytes} bytes exceeds the {chunk_bytes}-byte \
                 processing block"
            ),
            IrError::UnknownOperator { parser, name } => write!(
                f,
                "parser `{parser}`: `{name}` is neither a standard comparator operator \
                 (ne, eq, gt, ge, lt, le, nop) nor a registered custom operator"
            ),
            IrError::NoRelevantFields { strct } => {
                write!(f, "struct `{strct}` has no filterable field (only string postfixes)")
            }
            IrError::UnsupportedByBaseline { parser, reason } => {
                write!(f, "parser `{parser}`: {reason} is not supported by the [1] baseline")
            }
        }
    }
}

impl std::error::Error for IrError {}
