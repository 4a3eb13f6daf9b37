//! The NDP processing element (PE): architectural template, cycle-level
//! model, and hardware elaboration.
//!
//! This crate realizes the paper's architectural template (Fig. 3):
//!
//! * **(a) control component** — a register file mapped into the ARM
//!   address space ([`regs`]: each register window declared once, and that
//!   table is the map the C header prints, the `RegFile` the template
//!   prices and the register file the simulator decodes);
//! * **(b) memory interface** — Load/Store units moving data between
//!   PS-DRAM and the PE at 64-bit granularity; *flexible* (partial-block)
//!   in this work, fixed 32 KiB blocks in the baseline of \[1\]
//!   ([`pipeline`]);
//! * **(c) accessor component** — Tuple Input/Output Buffers converting
//!   between the 64-bit memory interface and padded tuples ([`tuple`](mod@tuple),
//!   [`pipeline`]);
//! * **(d) computation component** — a chain of 1..N Filtering Units
//!   (lane mux + Compare Unit, Fig. 5) followed by the Data
//!   Transformation Unit ([`pipeline`]).
//!
//! Two executable models are provided: a **cycle-level** simulator
//! ([`pipeline::PeSim`]) that computes the elastic, latency-insensitive
//! pipeline's cycles exactly as a recurrence over tuples — of a generated
//! PE ([`PeSim::new`]) or of the hand-crafted PE of \[1\]
//! ([`PeSim::baseline`], which refuses what that architecture lacks:
//! more than one stage, an aggregation unit, a custom operator) — and a
//! byte-level **software oracle** ([`oracle`]) defining the functional
//! semantics (also reused as the ARM software-NDP implementation by
//! `nkv`). A validated **analytic timing estimator**
//! ([`pipeline::estimate_block_cycles`]) lets large-scale simulations
//! skip the cycle model.
//!
//! [`template`] elaborates a PE configuration into an `ndp-hdl` design for
//! Verilog emission and resource estimation (Table I, Figs. 8/9).
//!
//! The `pub use` list below and the [`PeDevice`] trait are this crate's
//! API, plus the `pub mod`s whose paths other crates name. Everything else
//! is private to the crate, and `#![deny(unreachable_pub)]` keeps it so.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![deny(unreachable_pub)]

mod membus;
pub mod oracle;
pub mod pipeline;
pub mod regs;
pub mod template;
pub mod tuple;

pub use membus::{MemBus, VecMem};
pub use oracle::FilterRule;
pub use pipeline::{estimate_block_cycles, BlockResult, PeSim};
pub use regs::{Access, Mmio, RegisterMap};
pub use template::{
    pe_design_opts, pe_report, pe_report_opts, PeObservability, PeReport, PeVariant, SystemReport,
};
pub use tuple::{LayoutCodec, Tuple};

/// Anything that behaves like a PE from the firmware's point of view:
/// a control-register interface plus the ability to execute the
/// configured block against a memory.
pub trait PeDevice: Mmio {
    /// Execute the operation configured in the control registers
    /// (equivalent to the hardware running after `START` until `BUSY`
    /// deasserts), returning per-block statistics.
    ///
    /// Source and result regions should not overlap. The one overlap with
    /// a defined result is in place — `DST_ADDR == SRC_ADDR` with output
    /// tuples no wider than input tuples, where the store pointer trails
    /// the load pointer. A result region that covers source bytes the
    /// Load Unit has not read yet is unspecified: the streaming hardware
    /// would read its own output there, a model that reads the source
    /// first would not.
    fn execute(&mut self, mem: &mut dyn MemBus) -> BlockResult;

    /// Number of filtering stages this device provides.
    fn stages(&self) -> u32;
}

impl<T: Mmio + ?Sized> Mmio for Box<T> {
    fn mmio_read(&mut self, offset: u32) -> u32 {
        (**self).mmio_read(offset)
    }

    fn mmio_write(&mut self, offset: u32, value: u32) {
        (**self).mmio_write(offset, value)
    }
}

impl<T: PeDevice + ?Sized> PeDevice for Box<T> {
    fn execute(&mut self, mem: &mut dyn MemBus) -> BlockResult {
        (**self).execute(mem)
    }

    fn stages(&self) -> u32 {
        (**self).stages()
    }
}
