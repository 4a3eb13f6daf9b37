//! Root crate of the NDP-accelerator-generation reproduction suite.
//!
//! This crate exists to host the repository-level `examples/` and `tests/`
//! directories; all functionality lives in the workspace crates it re-exports.

#![forbid(unsafe_code)]

pub use cosmos_sim;
pub use ndp_core;
pub use ndp_hdl;
pub use ndp_ir;
pub use ndp_pe;
pub use ndp_spec;
pub use ndp_swgen;
pub use ndp_workload;
pub use nkv;
