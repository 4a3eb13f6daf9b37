//! Structural design representation.
//!
//! A [`Design`] is a tree of module instances whose leaves are
//! [`Primitive`]s — the hardware building blocks the architectural
//! template (Fig. 3 of the paper) is composed from. The tree is what both
//! the Verilog emitter and the resource model consume.

/// Ceiling base-2 logarithm, with `clog2(0..=1) == 1` (a register always
/// needs at least one bit).
pub(crate) fn clog2(n: u64) -> u32 {
    64 - n.max(2).saturating_sub(1).leading_zeros()
}

/// Leaf hardware building blocks with their elaboration parameters.
///
/// The set mirrors the components of the paper's architectural template
/// (Fig. 3): the control register file (a), the memory interface (b),
/// the tuple buffers (c) and the computation units (d), plus the generic
/// FIFOs, muxes and counters they are built from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Primitive {
    /// AXI4-Lite control register file mapped into the ARM address space.
    RegFile {
        /// Number of 32-bit registers.
        n_regs: u32,
    },
    /// AXI4 Full master read channel (the Load Unit).
    ///
    /// `flexible` units (this work) support configurable partial-block
    /// lengths; fixed units (\[1\]) always move whole 32 KiB blocks.
    AxiLoad {
        /// Datapath width in bits (64 on Zynq-7000 HP ports).
        data_bits: u32,
        /// Configurable transfer length (ours) vs. fixed blocks (\[1\]).
        flexible: bool,
    },
    /// AXI4 Full master write channel (the Store Unit).
    AxiStore { data_bits: u32, flexible: bool },
    /// Block buffer between the memory interface and the tuple buffers.
    /// Generated PEs back this with block RAM (the paper notes each
    /// generated accelerator uses a single BRAM, unlike \[1\]).
    BlockBuffer {
        /// Buffered bytes.
        bytes: u32,
        /// True → RAMB36-backed; false → distributed LUT RAM (\[1\]).
        bram: bool,
    },
    /// Tuple Input Buffer: groups the 64-bit memory words into complete
    /// tuples and splits them into padded comparator lanes plus the
    /// opaque string-postfix vector.
    TupleUnpack {
        /// Memory word width (64).
        word_bits: u32,
        /// Packed tuple width in bits.
        tuple_bits: u32,
        /// Number of padded lanes produced.
        lanes: u32,
        /// Lane width in bits.
        lane_bits: u32,
        /// Carried opaque postfix width in bits.
        postfix_bits: u32,
        /// True for the generic generated realignment network (this
        /// work); false for the hand-specialized schedule of \[1\].
        generated: bool,
    },
    /// Tuple Output Buffer: reverse of [`Primitive::TupleUnpack`].
    TuplePack {
        word_bits: u32,
        tuple_bits: u32,
        lanes: u32,
        lane_bits: u32,
        postfix_bits: u32,
        /// See [`Primitive::TupleUnpack::generated`].
        generated: bool,
    },
    /// Elastic FIFO carrying whole padded tuples between pipeline stages.
    Fifo {
        /// Payload width in bits.
        width: u32,
        /// Depth in entries.
        depth: u32,
    },
    /// Lane-select multiplexer feeding the Compare Unit (Fig. 5).
    LaneMux {
        /// Number of selectable lanes.
        lanes: u32,
        /// Lane width in bits.
        lane_bits: u32,
    },
    /// The Compare Unit: evaluates the selected lane against the
    /// reference value under the operator chosen by `operator_select`.
    CompareUnit {
        /// Operand width in bits.
        lane_bits: u32,
        /// Number of selectable operations (incl. `nop`).
        n_ops: u32,
        /// Whether any lane is signed (adds sign-aware compare logic).
        signed: bool,
        /// Whether any lane is floating-point (adds FP compare logic).
        float: bool,
    },
    /// The Data Transformation Unit's routing network: moves input lanes
    /// and postfix bytes to their output positions.
    TransformRoute {
        /// Number of routed output fields.
        moves: u32,
        /// Lane width in bits.
        lane_bits: u32,
        /// Routed postfix width in bits.
        postfix_bits: u32,
    },
    /// Status/result counter (e.g. `FILTER_COUNTER`).
    Counter { width: u32 },
    /// The Aggregation Unit (extension): a lane mux feeding an adder and
    /// a type-aware min/max comparator with a 64-bit accumulator.
    AggregateUnit {
        /// Operand width in bits.
        lane_bits: u32,
        /// Number of selectable reductions (count/sum/min/max subsets).
        n_ops: u32,
        /// Lanes the unit can select from.
        lanes: u32,
    },
    /// Control finite-state machine sequencing one unit.
    ControlFsm { states: u32 },
    /// Fixed platform macro with externally known resource counts
    /// (NVMe core, Tiger4 flash controller, PS interconnect, ...).
    /// `slices`/`brams` are taken from the Cosmos+ baseline reports.
    PlatformMacro { name: &'static str, slices: u32, brams: u32 },
}

impl Primitive {
    /// A short type name used for Verilog module naming.
    #[cfg(test)]
    pub(crate) fn type_name(&self) -> &'static str {
        match self {
            Primitive::RegFile { .. } => "ctrl_regfile",
            Primitive::AxiLoad { .. } => "axi_load_unit",
            Primitive::AxiStore { .. } => "axi_store_unit",
            Primitive::BlockBuffer { .. } => "block_buffer",
            Primitive::TupleUnpack { .. } => "tuple_input_buffer",
            Primitive::TuplePack { .. } => "tuple_output_buffer",
            Primitive::Fifo { .. } => "elastic_fifo",
            Primitive::LaneMux { .. } => "lane_mux",
            Primitive::CompareUnit { .. } => "compare_unit",
            Primitive::TransformRoute { .. } => "transform_route",
            Primitive::Counter { .. } => "counter",
            Primitive::AggregateUnit { .. } => "aggregate_unit",
            Primitive::ControlFsm { .. } => "control_fsm",
            Primitive::PlatformMacro { .. } => "platform_macro",
        }
    }
}

/// A named child within a module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Child {
    /// Instance name (unique within the parent).
    pub inst_name: String,
    pub(crate) node: Node,
}

/// Either a leaf primitive or a nested module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    Prim(Primitive),
    Module(Module),
}

/// A composite module: a named collection of instances.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Module {
    pub name: String,
    pub children: Vec<Child>,
}

impl Module {
    /// Create an empty module.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into(), children: Vec::new() }
    }

    /// Add a primitive instance; returns `self` for chaining.
    pub fn prim(mut self, inst_name: impl Into<String>, p: Primitive) -> Self {
        self.children.push(Child { inst_name: inst_name.into(), node: Node::Prim(p) });
        self
    }

    /// Add a nested module instance; returns `self` for chaining.
    pub fn module(mut self, inst_name: impl Into<String>, m: Module) -> Self {
        self.children.push(Child { inst_name: inst_name.into(), node: Node::Module(m) });
        self
    }

    /// Depth-first iteration over all primitives in the subtree.
    pub fn primitives(&self) -> Vec<&Primitive> {
        let mut out = Vec::new();
        self.collect_prims(&mut out);
        out
    }

    fn collect_prims<'a>(&'a self, out: &mut Vec<&'a Primitive>) {
        for c in &self.children {
            match &c.node {
                Node::Prim(p) => out.push(p),
                Node::Module(m) => m.collect_prims(out),
            }
        }
    }

    /// Count instances (primitive leaves) in the subtree.
    #[cfg(test)]
    pub(crate) fn leaf_count(&self) -> usize {
        self.primitives().len()
    }
}

/// A complete elaborated design with a single top module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Design {
    pub top: Module,
}

impl Design {
    /// Wrap a module as a design.
    pub fn new(top: Module) -> Self {
        Self { top }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clog2_values() {
        assert_eq!(clog2(0), 1);
        assert_eq!(clog2(1), 1);
        assert_eq!(clog2(2), 1);
        assert_eq!(clog2(3), 2);
        assert_eq!(clog2(4), 2);
        assert_eq!(clog2(5), 3);
        assert_eq!(clog2(1024), 10);
        assert_eq!(clog2(1025), 11);
    }

    fn sample() -> Module {
        Module::new("pe").prim("regs", Primitive::RegFile { n_regs: 16 }).module(
            "filter0",
            Module::new("filter_unit")
                .prim("mux", Primitive::LaneMux { lanes: 3, lane_bits: 64 })
                .prim(
                    "cmp",
                    Primitive::CompareUnit { lane_bits: 64, n_ops: 7, signed: false, float: false },
                ),
        )
    }

    #[test]
    fn builder_nests_and_counts() {
        let m = sample();
        assert_eq!(m.children.len(), 2);
        assert_eq!(m.leaf_count(), 3);
        let prims = m.primitives();
        assert!(matches!(prims[0], Primitive::RegFile { n_regs: 16 }));
        assert!(matches!(prims[2], Primitive::CompareUnit { .. }));
    }

    #[test]
    fn type_names_are_stable() {
        assert_eq!(Primitive::Fifo { width: 8, depth: 2 }.type_name(), "elastic_fifo");
        assert_eq!(
            Primitive::PlatformMacro { name: "nvme", slices: 1, brams: 0 }.type_name(),
            "platform_macro"
        );
    }

    #[test]
    fn design_wraps_top() {
        let d = Design::new(sample());
        assert_eq!(d.top.name, "pe");
    }
}
