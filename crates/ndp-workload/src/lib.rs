//! The publication-reference-graph workload of the paper's evaluation.
//!
//! "The nodes of the graph are papers published in journals and
//! conferences. The edges of the graph are references between those
//! papers. Overall, the dataset is comprised of 3,775,161 Paper-Entries
//! and 40,128,663 references between them." (paper, Sec. V)
//!
//! The original dataset is not public, so this crate generates a seeded
//! synthetic graph with the same cardinalities and record shapes
//! (see DESIGN.md for the substitution argument): 80-byte [`Paper`]
//! records (with an 8-byte string-prefixed title) and 20-byte [`Ref`]
//! records, both defined by the same `@autogen` specification
//! ([`PAPER_REF_SPEC`]) that drives PE generation — the whole point of
//! the framework is that one source describes both the data and the
//! hardware.
//!
//! Generators are *streaming* and deterministic: record `i` depends only
//! on `(seed, i)`, so multi-gigabyte datasets are produced without
//! materialization and any sub-range can be regenerated for verification.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod pubgraph;
pub mod rng;
pub mod spec;

pub use pubgraph::{Paper, PaperGen, PubGraphConfig, Ref, RefGen};
pub use rng::SplitMix64;
pub use spec::{PAPER_PE, PAPER_REF_SPEC, REF_PE};
