//! Automatic generation of the PE software interface.
//!
//! The paper's toolflow does not stop at the hardware: it also generates a
//! *header-only C library* for controlling the PEs (Sec. IV-C, Fig. 6),
//! built bottom-up — register address macros, register accessors, then
//! synchronous/asynchronous filtering calls and debug printers — so a
//! database engineer can drive the accelerator without knowing how it
//! works.
//!
//! Two artifacts come out of the same [`RegisterMap`](ndp_pe::RegisterMap):
//!
//! * [`generate_header`] — the C header text (the inspectable
//!   artifact, snapshot-tested); and
//! * [`PeDriver`] — the Rust twin of that header, which drives
//!   the simulated PEs in tests, examples and the benchmark, and whose
//!   register protocol [`job_io`] counts for the `nkv` firmware
//!   layer, which charges it. The header is the protocol and the twin
//!   replays it, access for access; the `driver` module says how that
//!   is checked and what has no C side.
//!
//! The `pub use` list below is this crate's API. Every module and every
//! other item is private to the crate, and `#![deny(unreachable_pub)]`
//! keeps it so.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![deny(unreachable_pub)]

mod driver;
mod header;

pub use driver::{job_io, DriverProfile, FilterJob, IoStats, JobResult, PeDriver, PeInvoke};
pub use header::generate_header;
