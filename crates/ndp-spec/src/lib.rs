//! Specification frontend for the NDP accelerator generator.
//!
//! The paper's toolflow (Fig. 4) accepts *C-style type definitions* plus
//! `@autogen` annotations embedded in comments, so that a database engineer
//! can reuse application code to drive hardware generation:
//!
//! ```text
//! /* @autogen define parser Point3DTo2D with
//!    chunksize = 32, input = Point3D, output = Point2D,
//!    mapping = { output.x = input.y, output.y = input.z }
//! */
//! typedef struct { uint32_t x, y, z; } Point3D;
//! typedef struct { uint32_t x, y; } Point2D;
//! ```
//!
//! This crate lexes and parses that language into an AST ([`SpecModule`]).
//! Semantic analysis (type resolution, string handling, scalarization,
//! padding, layout) lives in the `ndp-ir` crate.
//!
//! Supported surface syntax:
//!
//! * `typedef struct { ... } Name;` with primitive fields
//!   (`uint8_t`..`uint64_t`, `int8_t`..`int64_t`, `float`, `double`),
//!   multi-declarators (`uint32_t x, y, z;`), (nested) arrays
//!   (`uint32_t m[2][3];`) and references to previously defined structs.
//! * `/* @string(prefix = N) */` immediately before a byte-array field marks
//!   it as string data: the first `N` bytes become a regular (filterable)
//!   prefix field, the rest is an opaque postfix (paper, Sec. IV-B).
//! * `/* @autogen define parser NAME with key = value, ... */` defines a PE.
//!   Recognized keys: `chunksize` (KiB per processed block), `input`,
//!   `output` (struct names), `mapping` (explicit output←input field paths),
//!   `stages` (number of chained filtering units, default 1) and
//!   `operators` (comparator operator set, default the paper's standard set).
//!
//! The `pub use` list below and [`parse`] are this crate's API. Every
//! module and every other item is private to the crate, and
//! `#![deny(unreachable_pub)]` keeps it so.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![deny(unreachable_pub)]

mod ast;
mod error;
mod lexer;
mod parser;
mod printer;

pub use ast::{
    FieldDecl, FieldPath, MappingEntry, ParserSpec, PrimTy, SpecModule, StructDef, TypeExpr,
};
pub use error::SpecError;
pub use lexer::Span;
pub use printer::print_module;

/// Convenience entry point: parse a complete specification source file.
pub fn parse(source: &str) -> Result<SpecModule, SpecError> {
    parser::parse_module(source)
}
