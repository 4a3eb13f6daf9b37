//! FPGA resource estimation.
//!
//! The paper's hardware evaluation reports *slice* utilization on the
//! Zynq-7000 XC7Z045 (54,650 slices), for full-design (in-context, Table I)
//! and out-of-context syntheses (Figs. 8 and 9). This module maps an
//! elaborated [`Design`](crate::Design) to LUT/FF/BRAM counts via
//! structural per-primitive formulas and converts LUTs to slices with a
//! packing factor that differs between in-context (dense) and
//! out-of-context ("without very dense packing", paper Sec. V) synthesis.
//!
//! ## Calibration
//!
//! Absolute slice counts of a real Vivado run cannot be predicted from
//! structure alone, so a handful of coefficients ([`calib`]) are fitted to
//! the four per-PE anchors of the paper's Table I (paper-PE and ref-PE,
//! hand-crafted \[1\] and generated). Everything else — Figs. 8/9 shapes,
//! the overall/percent rows, the Half-vs-Full crossover — is then a
//! *prediction* of the fitted model. The key structural distinction the
//! fit exposed: the *generated* tuple buffers instantiate a generic
//! any-offset realignment network (quadratic in tuple width), while the
//! hand-crafted buffers of \[1\] use a schedule specialized to the known
//! tuple size (linear in tuple width); the flexible load/store units of
//! this work add a small constant on top.

use crate::design::{clog2, Module, Node, Primitive};

/// Device data for the Xilinx Zynq-7000 XC7Z045 (as used on Cosmos+).
pub struct XC7Z045;

impl XC7Z045 {
    /// Total slices available (paper, Table I "Available" row).
    pub const SLICES: u32 = 54_650;
}

/// Calibration coefficients (see module docs).
pub mod calib {
    /// Quadratic realignment-network coefficient shared by both tuple
    /// buffer variants, in LUTs per (tuple bit)², split 60 % input /
    /// 40 % output: moving a T-bit tuple across 64-bit word boundaries
    /// needs a T-wide mux layer selecting among O(T/64) word positions.
    pub(crate) const ALIGN_QUAD_LUTS_PER_BIT2: f64 = 0.039_224;
    /// Additional per-level cost of the *generated* buffers' generic
    /// any-offset network, in LUTs per (tuple bit)² per mux level
    /// (clog2 of the words per tuple). The hand-crafted buffers of \[1\]
    /// collapse these levels into a single specialized layer because the
    /// tuple size is a compile-time constant for them.
    pub(crate) const GEN_ALIGN_DEPTH_LUTS_PER_BIT2: f64 = 0.005_921_1;
    /// Extra LUTs in a flexible (partial-block capable) Load or Store
    /// unit compared to the fixed-block units of \[1\].
    pub(crate) const FLEX_AXI_EXTRA_LUTS: f64 = 31.4;
    /// Miscellaneous per-PE glue (reset trees, AXI adapters, debug):
    /// fitted residual, identical for both variants.
    pub(crate) const PE_GLUE_LUTS: f64 = 41.9;
    /// In-context packing: fraction of a slice's 4 LUTs usable when Vivado
    /// packs the full design densely.
    pub(crate) const PACKING_IN_CONTEXT: f64 = 0.50;
    /// Out-of-context packing (paper: OOC results represent the logic
    /// "without very dense packing").
    pub(crate) const PACKING_OUT_OF_CONTEXT: f64 = 0.40;
    /// Fixed platform slice budget: NVMe core, two Tiger4 flash
    /// controllers, PS interconnect and infrastructure of the Cosmos+
    /// baseline design.
    pub const PLATFORM_SLICES: f64 = 15_000.0;
    /// Per-PE interconnect cost of the \[1\] system composition.
    pub const INTERCONNECT_BASE_SLICES: f64 = 925.25;
    /// Per-PE interconnect cost of our refined template (paper: "more
    /// efficient use of interconnects in our refined architecture
    /// template").
    pub const INTERCONNECT_OURS_SLICES: f64 = 308.0;
    /// BRAM bits per RAMB36E1.
    pub(crate) const BRAM_BITS: u64 = 36_864;
}

/// Aggregated resource counts. LUTs/FFs are tracked as `f64` because the
/// calibrated coefficients are fractional; slice conversion rounds once at
/// the end.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Resources {
    pub luts: f64,
    pub ffs: f64,
    pub brams: u32,
    /// Slices contributed directly by fixed platform macros (bypassing
    /// the LUT→slice conversion; their counts come from vendor reports).
    pub(crate) macro_slices: f64,
}

impl Resources {
    /// Elementwise sum.
    pub fn add(&mut self, other: Resources) {
        self.luts += other.luts;
        self.ffs += other.ffs;
        self.brams += other.brams;
        self.macro_slices += other.macro_slices;
    }

    /// A LUT/FF-only contribution.
    pub(crate) fn logic(luts: f64, ffs: f64) -> Self {
        Resources { luts, ffs, ..Default::default() }
    }
}

/// Slice-conversion model (in-context vs out-of-context packing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SliceModel {
    /// Full-design synthesis with dense packing (Table I).
    InContext,
    /// Out-of-context synthesis of a single PE (Figs. 8, 9).
    OutOfContext,
}

impl SliceModel {
    fn packing(self) -> f64 {
        match self {
            SliceModel::InContext => calib::PACKING_IN_CONTEXT,
            SliceModel::OutOfContext => calib::PACKING_OUT_OF_CONTEXT,
        }
    }

    /// Convert aggregated resources to occupied slices.
    ///
    /// The generated designs are LUT-bound (FFs are plentiful at 8 per
    /// slice), so slices = LUTs / (4 × packing) + macro slices.
    pub fn slices(self, r: &Resources) -> f64 {
        r.luts / (4.0 * self.packing()) + r.macro_slices
    }

    /// Slices as a rounded integer, the way the paper tabulates them.
    pub fn slices_rounded(self, r: &Resources) -> u32 {
        self.slices(r).round() as u32
    }

    /// Utilization percentage of the XC7Z045.
    #[cfg(test)]
    pub(crate) fn utilization_pct(self, r: &Resources) -> f64 {
        self.slices(r) / f64::from(XC7Z045::SLICES) * 100.0
    }
}

/// Estimate the resources of one primitive.
pub(crate) fn primitive_resources(p: &Primitive) -> Resources {
    match *p {
        Primitive::RegFile { n_regs } => {
            let n = f64::from(n_regs);
            Resources::logic(8.0 * n + 24.0, 32.0 * n + 48.0)
        }
        Primitive::AxiLoad { data_bits, flexible } => {
            let w = f64::from(data_bits);
            let flex = if flexible { calib::FLEX_AXI_EXTRA_LUTS } else { 0.0 };
            Resources::logic(3.0 * w + 88.0 + flex, 4.0 * w + 160.0 + flex)
        }
        Primitive::AxiStore { data_bits, flexible } => {
            let w = f64::from(data_bits);
            let flex = if flexible { calib::FLEX_AXI_EXTRA_LUTS } else { 0.0 };
            Resources::logic(3.0 * w + 68.0 + flex, 4.0 * w + 120.0 + flex)
        }
        Primitive::BlockBuffer { bytes, bram } => {
            if bram {
                let brams = ((u64::from(bytes) * 8).div_ceil(calib::BRAM_BITS)).max(1) as u32;
                Resources { luts: 76.0, ffs: 90.0, brams, macro_slices: 0.0 }
            } else {
                Resources::logic(f64::from(bytes) / 8.0 + 40.0, 80.0)
            }
        }
        Primitive::TupleUnpack {
            word_bits,
            tuple_bits,
            lanes,
            lane_bits,
            postfix_bits,
            generated,
        } => tuple_buffer(word_bits, tuple_bits, lanes, lane_bits, postfix_bits, 0.6, generated),
        Primitive::TuplePack {
            word_bits,
            tuple_bits,
            lanes,
            lane_bits,
            postfix_bits,
            generated,
        } => tuple_buffer(word_bits, tuple_bits, lanes, lane_bits, postfix_bits, 0.4, generated),
        Primitive::Fifo { width, depth } => {
            let w = f64::from(width);
            let srl_stages = f64::from(depth.div_ceil(32).max(1));
            Resources::logic(w / 2.0 * srl_stages + 16.0, w + 24.0)
        }
        Primitive::LaneMux { lanes, lane_bits } => {
            let per_bit = f64::from(lanes.saturating_sub(1).div_ceil(3));
            Resources::logic(
                f64::from(lane_bits) * per_bit + 8.0,
                f64::from(clog2(u64::from(lanes))) + 4.0,
            )
        }
        Primitive::CompareUnit { lane_bits, n_ops, signed, float } => {
            let w = f64::from(lane_bits);
            let mut luts = w / 2.0 + 2.0 * f64::from(n_ops) + 10.0;
            if signed {
                luts += w / 8.0;
            }
            if float {
                luts += w / 2.0;
            }
            Resources::logic(luts, 2.0 * w + 8.0)
        }
        Primitive::TransformRoute { moves, lane_bits, postfix_bits } => Resources::logic(
            2.0 * f64::from(moves) + f64::from(postfix_bits) / 8.0 + 10.0,
            f64::from(lane_bits) / 4.0 + 8.0,
        ),
        Primitive::Counter { width } => Resources::logic(f64::from(width), f64::from(width)),
        Primitive::AggregateUnit { lane_bits, n_ops, lanes } => {
            let w = f64::from(lane_bits);
            // Lane mux + 64-bit adder (carry chain) + compare + op decode
            // + accumulator register.
            let mux = w * f64::from(lanes.saturating_sub(1).div_ceil(3));
            Resources::logic(
                mux + w / 2.0 + w / 2.0 + 2.0 * f64::from(n_ops) + 16.0,
                2.0 * w + 16.0,
            )
        }
        Primitive::ControlFsm { states } => {
            Resources::logic(5.0 * f64::from(states) + 12.0, f64::from(states) + 8.0)
        }
        Primitive::PlatformMacro { slices, brams, .. } => {
            Resources { luts: 0.0, ffs: 0.0, brams, macro_slices: f64::from(slices) }
        }
    }
}

/// Shared cost model of the tuple input/output buffers.
///
/// `share` splits the realignment network 60/40 between input and output
/// side; `generated` selects the generic quadratic network (this work) vs
/// the hand-specialized linear schedule of \[1\], as the tuple buffer
/// primitives' own `generated` flag says.
fn tuple_buffer(
    word_bits: u32,
    tuple_bits: u32,
    lanes: u32,
    lane_bits: u32,
    postfix_bits: u32,
    share: f64,
    generated: bool,
) -> Resources {
    let t = f64::from(tuple_bits);
    let words = u64::from(tuple_bits.div_ceil(word_bits.max(1)));
    let mut align = calib::ALIGN_QUAD_LUTS_PER_BIT2 * t * t;
    if generated {
        align += calib::GEN_ALIGN_DEPTH_LUTS_PER_BIT2 * t * t * f64::from(clog2(words));
    }
    let align = align * share;
    let lane_routing = f64::from(lanes) * f64::from(lane_bits) / 8.0;
    let postfix = if postfix_bits > 0 { f64::from(postfix_bits) / 4.0 + 60.0 } else { 0.0 };
    let ctrl = 30.0;
    let ffs = t + f64::from(word_bits) + f64::from(lanes * lane_bits + postfix_bits);
    Resources::logic(align + lane_routing + postfix + ctrl, ffs)
}

/// Resource estimate of a *hand-crafted* tuple buffer as used by the
/// baseline designs of \[1\] (linear realignment schedule).
#[cfg(test)]
pub(crate) fn baseline_tuple_buffer(
    word_bits: u32,
    tuple_bits: u32,
    lanes: u32,
    lane_bits: u32,
    postfix_bits: u32,
    input_side: bool,
) -> Resources {
    let share = if input_side { 0.6 } else { 0.4 };
    tuple_buffer(word_bits, tuple_bits, lanes, lane_bits, postfix_bits, share, false)
}

/// Per-PE glue as plain LUT/FF logic (see `calib::PE_GLUE_LUTS`).
pub fn glue_resources() -> Resources {
    pe_glue()
}

/// Per-PE glue contribution (see `calib::PE_GLUE_LUTS`).
pub(crate) fn pe_glue() -> Resources {
    Resources::logic(calib::PE_GLUE_LUTS, calib::PE_GLUE_LUTS)
}

/// Sum the resources of a whole module subtree (primitives only; glue and
/// baseline substitutions are added by the composing crate).
pub fn module_resources(m: &Module) -> Resources {
    let mut total = Resources::default();
    for c in &m.children {
        match &c.node {
            Node::Prim(p) => total.add(primitive_resources(p)),
            Node::Module(sub) => total.add(module_resources(sub)),
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::Module;

    #[test]
    fn regfile_scales_with_register_count() {
        let small = primitive_resources(&Primitive::RegFile { n_regs: 8 });
        let large = primitive_resources(&Primitive::RegFile { n_regs: 32 });
        assert!(large.luts > small.luts);
        assert_eq!(large.ffs - small.ffs, 24.0 * 32.0);
    }

    #[test]
    fn flexible_axi_units_cost_more() {
        let fixed = primitive_resources(&Primitive::AxiLoad { data_bits: 64, flexible: false });
        let flex = primitive_resources(&Primitive::AxiLoad { data_bits: 64, flexible: true });
        assert!((flex.luts - fixed.luts - calib::FLEX_AXI_EXTRA_LUTS).abs() < 1e-9);
    }

    #[test]
    fn bram_buffer_uses_bram_not_luts() {
        let bram = primitive_resources(&Primitive::BlockBuffer { bytes: 4096, bram: true });
        let lutram = primitive_resources(&Primitive::BlockBuffer { bytes: 4096, bram: false });
        assert_eq!(bram.brams, 1);
        assert_eq!(lutram.brams, 0);
        assert!(lutram.luts > bram.luts);
    }

    #[test]
    fn one_ramb36_per_36kbit() {
        let r = primitive_resources(&Primitive::BlockBuffer { bytes: 8192, bram: true });
        assert_eq!(r.brams, 2); // 65536 bits > 36864
    }

    #[test]
    fn generated_unpack_grows_quadratically() {
        let mk = |bits: u32| {
            primitive_resources(&Primitive::TupleUnpack {
                word_bits: 64,
                tuple_bits: bits,
                lanes: bits / 32,
                lane_bits: 32,
                postfix_bits: 0,
                generated: true,
            })
        };
        let (s, m, l) = (mk(64), mk(128), mk(256));
        // Quadratic: doubling width should much more than double the
        // alignment-dominated cost at large sizes.
        assert!((l.luts - m.luts) > 2.0 * (m.luts - s.luts) * 0.8);
        assert!(l.luts > 2.5 * m.luts * 0.8);
    }

    #[test]
    fn baseline_tuple_buffer_is_cheaper_than_generated() {
        // The hand-specialized schedule of [1] skips the generic network's
        // extra mux levels, so it costs strictly less at every size.
        for bits in [64u32, 160, 256, 640, 1024] {
            let base = baseline_tuple_buffer(64, bits, bits / 32, 32, 0, true);
            let gen = primitive_resources(&Primitive::TupleUnpack {
                word_bits: 64,
                tuple_bits: bits,
                lanes: bits / 32,
                lane_bits: 32,
                postfix_bits: 0,
                generated: true,
            });
            assert!(base.luts < gen.luts, "baseline not cheaper at {bits} bits");
        }
    }

    #[test]
    fn lane_mux_cost_increases_stepwise_with_lanes() {
        let mk =
            |lanes: u32| primitive_resources(&Primitive::LaneMux { lanes, lane_bits: 32 }).luts;
        assert_eq!(mk(1), 8.0); // pass-through
        assert_eq!(mk(4), 32.0 + 8.0);
        assert_eq!(mk(7), 64.0 + 8.0);
        assert!(mk(16) > mk(7));
    }

    #[test]
    fn compare_unit_feature_costs() {
        let plain = primitive_resources(&Primitive::CompareUnit {
            lane_bits: 64,
            n_ops: 7,
            signed: false,
            float: false,
        });
        let signed = primitive_resources(&Primitive::CompareUnit {
            lane_bits: 64,
            n_ops: 7,
            signed: true,
            float: false,
        });
        let float = primitive_resources(&Primitive::CompareUnit {
            lane_bits: 64,
            n_ops: 7,
            signed: true,
            float: true,
        });
        assert!(plain.luts < signed.luts && signed.luts < float.luts);
    }

    #[test]
    fn slice_models_differ_by_packing() {
        let r = Resources::logic(4000.0, 1000.0);
        let ic = SliceModel::InContext.slices(&r);
        let ooc = SliceModel::OutOfContext.slices(&r);
        assert!((ic - 2000.0).abs() < 1e-9);
        assert!((ooc - 2500.0).abs() < 1e-9);
    }

    #[test]
    fn platform_macros_bypass_packing() {
        let r = primitive_resources(&Primitive::PlatformMacro {
            name: "nvme",
            slices: 4200,
            brams: 24,
        });
        assert_eq!(SliceModel::InContext.slices_rounded(&r), 4200);
        assert_eq!(SliceModel::OutOfContext.slices_rounded(&r), 4200);
        assert_eq!(r.brams, 24);
    }

    #[test]
    fn module_resources_sum_children() {
        let m = Module::new("m")
            .prim("a", Primitive::Counter { width: 32 })
            .module("sub", Module::new("s").prim("b", Primitive::Counter { width: 16 }));
        let r = module_resources(&m);
        assert_eq!(r.luts, 48.0);
    }

    #[test]
    fn utilization_pct_is_relative_to_device() {
        let r = Resources { macro_slices: 5465.0, ..Default::default() };
        assert!((SliceModel::InContext.utilization_pct(&r) - 10.0).abs() < 1e-9);
    }
}
