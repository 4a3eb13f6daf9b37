//! Contextual analysis for the NDP accelerator generator.
//!
//! This crate implements the paper's "Contextual Analysis" phase
//! (Sec. IV-B): starting from the parsed struct typedefs it
//!
//! 1. builds *type trees* (`tree::TypeNode`) with nested structs/arrays,
//! 2. resolves `@string`-annotated byte arrays into a filterable *prefix*
//!    field plus an opaque *postfix* (`passes::resolve_strings`),
//! 3. *scalarizes* arrays into structs of element fields
//!    (`uint32_t v[2]` → `{ v_0, v_1 }`, `passes::scalarize`),
//! 4. determines the largest *relevant* (filterable) field and computes the
//!    padded data layout so every relevant field fits one comparator lane
//!    ([`TupleLayout`]), and
//! 5. derives the input→output field mapping for the Data Transformation
//!    Unit, covering the paper's three cases (identity, automatic by-name
//!    matching, explicit user mapping) ([`TransformPlan`]).
//!
//! The result is a [`PeConfig`]: everything the hardware template
//! (`ndp-pe`), the HDL backend (`ndp-hdl` via `ndp-pe`) and the software
//! interface generator (`ndp-swgen`) need.
//!
//! The `pub use` list below is this crate's API. Every module and every
//! other item is private to the crate, and `#![deny(unreachable_pub)]`
//! keeps it so.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![deny(unreachable_pub)]

mod config;
mod error;
mod layout;
mod mapping;
mod passes;
mod tree;

pub use config::{
    elaborate, elaborate_all, elaborate_with_custom_ops, AggOp, CmpOp, OpSpec, PeConfig,
};
pub use error::{IrError, IrResult};
pub use layout::{FieldLayout, TupleLayout};
pub use mapping::{FieldMove, TransformPlan};
