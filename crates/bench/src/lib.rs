//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (Sec. V).
//!
//! Each experiment has a pure function here (consumed by the `repro`
//! binary and the integration tests):
//!
//! * [`figures::fig7a`] — GET runtimes, SW/HW × \[1\]/ours;
//! * [`figures::fig7b`] — SCAN runtimes, SW/HW × \[1\]/ours;
//! * [`figures::table1`] — full-design slice utilization;
//! * [`figures::fig8`] — out-of-context slices vs tuple size (Full/Half);
//! * [`figures::fig9`] — out-of-context slice % vs filtering stages;
//! * [`figures::ablation_pe_count`], [`figures::ablation_store_traffic`],
//!   [`figures::ablation_aggregate_pushdown`] — design-choice ablations
//!   called out in DESIGN.md (PE count sweep, flexible vs fixed store
//!   units, aggregate pushdown);
//! * [`loadgen::loadgen_traced`] — beyond-paper: closed-loop multi-client
//!   throughput/latency sweep through the NVMe queue engine, plus the
//!   parallel-PE scan sweep;
//! * [`explain::explain`] — the `repro explain` subcommand: parse a
//!   query, lower it through the planner, render the physical plan.
//!
//! Simulated times come from the calibrated `cosmos-sim` platform; see
//! EXPERIMENTS.md for the paper-vs-measured record.
//!
//! The `pub use` list and the `pub mod`s below are this crate's API, the
//! one the `repro` binary calls. Everything else is private to the crate,
//! and `#![deny(unreachable_pub)]` keeps it so.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![deny(unreachable_pub)]
#![forbid(unsafe_code)]

mod dataset;
pub mod explain;
pub mod figures;
pub mod loadgen;

pub use dataset::Dataset;
pub use loadgen::LoadgenConfig;
