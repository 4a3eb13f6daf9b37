//! Hardware construction library for the NDP accelerator generator.
//!
//! The paper implements its accelerators with the Chisel3 hardware
//! construction framework and synthesizes them with Vivado for the
//! Zynq-7000 (XC7Z045) on the Cosmos+ OpenSSD. Neither Chisel nor an FPGA
//! toolchain is available in this reproduction, so this crate provides the
//! two facilities the toolflow actually needs:
//!
//! * a **structural design representation** ([`Design`], [`Module`],
//!   [`Primitive`]) from which parameterized, synthesizable-style
//!   **Verilog** is emitted ([`verilog`]), mirroring Chisel's
//!   elaborate-then-emit flow; and
//! * a **resource estimation model** ([`resources`]) that maps the
//!   elaborated structure to 7-series LUT/FF/BRAM counts and then to
//!   *slices*, with distinct packing factors for in-context and
//!   out-of-context synthesis — the quantity the paper's entire hardware
//!   evaluation (Table I, Figs. 8 and 9) is expressed in.
//!
//! The model's coefficients are calibrated against the paper's Table I
//! anchors (see `resources`); Figures 8 and 9 are then predictions of the
//! same model. See DESIGN.md for the substitution argument.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod design;
pub mod resources;
pub mod verilog;

pub use design::{Child, Design, Module, Node, Primitive};
pub use resources::{Resources, SliceModel, XC7Z045};
