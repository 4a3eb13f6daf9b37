//! Automatic generation of the PE software interface.
//!
//! The paper's toolflow does not stop at the hardware: it also generates a
//! *header-only C library* for controlling the PEs (Sec. IV-C, Fig. 6),
//! built bottom-up — register address macros, register accessors, then
//! synchronous/asynchronous filtering calls and debug printers — so a
//! database engineer can drive the accelerator without knowing how it
//! works.
//!
//! Two artifacts come out of the same [`RegisterMap`]:
//!
//! * [`header::generate_header`] — the C header text (the inspectable
//!   artifact, snapshot-tested); and
//! * [`driver::PeDriver`] — the Rust twin of that header, which the `nkv`
//!   firmware layer actually uses to drive the simulated PEs. Because
//!   both render the same map, the register-level protocol exercised in
//!   simulation is the one the generated C code would perform on the
//!   device.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod driver;
pub mod header;

pub use driver::{
    DriverProfile, FilterJob, IoStats, JobHandle, JobResult, PeDriver, PeInvoke, PerfReadout,
};
pub use header::generate_header;
