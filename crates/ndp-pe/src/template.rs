//! Elaboration of PE configurations into hardware designs and resource
//! reports.
//!
//! [`pe_design_opts`] composes the architectural template of Fig. 3 from
//! `ndp-hdl` primitives; `pe_resources`/[`pe_report`] run the calibrated
//! resource model over it (Table I, Figs. 8/9); [`system_report`]
//! assembles the full Cosmos+ design (platform + interconnect + PEs) the
//! way the paper's Table I reports it.

use crate::regs::RegisterMap;
use ndp_hdl::resources::{calib, glue_resources, module_resources};
use ndp_hdl::{Design, Module, Primitive, Resources, SliceModel, XC7Z045};
use ndp_ir::PeConfig;

/// Which architecture template a PE uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeVariant {
    /// Generated by this work's framework: flexible load/store units,
    /// chainable filtering stages, BRAM block buffer, generic
    /// realignment networks.
    Generated,
    /// Hand-crafted as in \[1\]: fixed 32 KiB block movement, single
    /// stage, hand-specialized tuple buffers, no BRAM.
    HandCrafted,
}

/// Whether the generated design instantiates the performance-counter
/// bank. Like vendor debug cores, the observability hardware is a
/// synthesis option of the template: the paper's Table I bitstreams
/// predate it, so the figure-reproduction paths use [`Stripped`]
/// (the calibrated anchors hold exactly), while artifact export
/// ([`ndp-core`]'s Verilog/header/report) synthesizes the counters the
/// register map advertises. `examples/profiling.rs` reports the delta —
/// the observability tax — explicitly.
///
/// [`Stripped`]: PeObservability::Stripped
/// [`ndp-core`]: ../../ndp_core/index.html
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeObservability {
    /// No counter bank (the paper's evaluation bitstreams).
    Stripped,
    /// Counter bank synthesized (full generated artifact).
    Counters,
}

/// Size in bytes of the BRAM-backed block buffer of generated PEs
/// (one RAMB36: the paper notes a single BRAM per generated PE).
const GEN_BLOCK_BUFFER_BYTES: u32 = 4096;
/// Distributed-RAM staging buffer of the hand-crafted baseline.
const BASE_BLOCK_BUFFER_BYTES: u32 = 512;
/// FIFO depth (tuples) between pipeline units.
const FIFO_DEPTH: u32 = 4;

/// Elaborate a PE configuration into a structural hardware design
/// (counter bank stripped, the paper's evaluation configuration).
#[cfg(test)]
pub(crate) fn pe_design(cfg: &PeConfig, variant: PeVariant) -> Design {
    pe_design_opts(cfg, variant, PeObservability::Stripped)
}

/// Elaborate a PE configuration with an explicit observability option.
/// Only the generated template can synthesize counters; the hand-crafted
/// PEs of \[1\] never have them, whatever `obs` says.
pub fn pe_design_opts(cfg: &PeConfig, variant: PeVariant, obs: PeObservability) -> Design {
    let generated = variant == PeVariant::Generated;
    let flexible = generated;
    let counters = generated && obs == PeObservability::Counters;
    let stages = if generated { cfg.stages } else { 1 };
    let map = if generated { RegisterMap::for_config(cfg) } else { RegisterMap::for_stages(1) };
    // A stripped synthesis also shrinks the register file: the CNT_*
    // window reads as zeros, like an absent AXI-Lite sub-decoder.
    let n_regs = if counters { map.len() } else { map.len() - map.perf_regs };

    let in_l = &cfg.input;
    let out_l = &cfg.output;
    let padded_in = in_l.padded_bits() as u32;
    let padded_out = out_l.padded_bits() as u32;
    let signed = in_l.relevant_fields().any(|f| f.prim.is_some_and(|p| p.is_signed()));
    let float = in_l.relevant_fields().any(|f| f.prim.is_some_and(|p| p.is_float()));

    let mut top = Module::new(format!("pe_{}", cfg.name))
        .prim("ctrl", Primitive::RegFile { n_regs: n_regs as u32 })
        .prim("load", Primitive::AxiLoad { data_bits: 64, flexible })
        .prim(
            "block_buf",
            Primitive::BlockBuffer {
                bytes: if generated { GEN_BLOCK_BUFFER_BYTES } else { BASE_BLOCK_BUFFER_BYTES },
                bram: generated,
            },
        )
        .prim(
            "tuple_in",
            Primitive::TupleUnpack {
                word_bits: 64,
                tuple_bits: in_l.tuple_bits as u32,
                lanes: in_l.lanes,
                lane_bits: in_l.lane_bits,
                postfix_bits: in_l.postfix_bits as u32,
                generated,
            },
        )
        .prim("fifo_parsed", Primitive::Fifo { width: padded_in, depth: FIFO_DEPTH });

    for s in 0..stages {
        let mut filter = Module::new(format!("filter_unit_{s}"))
            .prim("mux", Primitive::LaneMux { lanes: in_l.lanes, lane_bits: in_l.lane_bits })
            .prim(
                "cmp",
                Primitive::CompareUnit {
                    lane_bits: in_l.lane_bits,
                    n_ops: cfg.operators.len() as u32,
                    signed,
                    float,
                },
            )
            .prim("out_fifo", Primitive::Fifo { width: padded_in, depth: FIFO_DEPTH })
            .prim("pass_counter", Primitive::Counter { width: 32 });
        if counters {
            filter = filter.prim("drop_counter", Primitive::Counter { width: 32 });
        }
        top = top.module(format!("filter{s}"), filter);
    }

    if generated && !cfg.aggregates.is_empty() {
        top = top.prim(
            "aggregate",
            Primitive::AggregateUnit {
                lane_bits: in_l.lane_bits,
                n_ops: cfg.aggregates.len() as u32,
                lanes: in_l.lanes,
            },
        );
    }

    top = top
        .prim(
            "transform",
            Primitive::TransformRoute {
                moves: cfg.transform.moves.len() as u32,
                lane_bits: out_l.lane_bits,
                postfix_bits: out_l.postfix_bits as u32,
            },
        )
        .prim("fifo_out", Primitive::Fifo { width: padded_out, depth: FIFO_DEPTH })
        .prim(
            "tuple_out",
            Primitive::TuplePack {
                word_bits: 64,
                tuple_bits: out_l.tuple_bits as u32,
                lanes: out_l.lanes,
                lane_bits: out_l.lane_bits,
                postfix_bits: out_l.postfix_bits as u32,
                generated,
            },
        )
        .prim("store", Primitive::AxiStore { data_bits: 64, flexible })
        .prim("tuples_in_counter", Primitive::Counter { width: 32 })
        .prim("fsm", Primitive::ControlFsm { states: 8 });

    if counters {
        // Free-running performance counters behind the CNT_* register
        // window. CNT_TUPLES_IN and CNT_TUPLES_OUT reuse the existing
        // `tuples_in_counter` and the last stage's `pass_counter`;
        // CNT_IDLE is derived as cycles − active at readout, so six
        // dedicated counters remain.
        let perf = Module::new("perf_counters")
            .prim("cnt_cycles", Primitive::Counter { width: 32 })
            .prim("cnt_active", Primitive::Counter { width: 32 })
            .prim("cnt_in_stall", Primitive::Counter { width: 32 })
            .prim("cnt_out_stall", Primitive::Counter { width: 32 })
            .prim("cnt_load_beats", Primitive::Counter { width: 32 })
            .prim("cnt_store_beats", Primitive::Counter { width: 32 });
        top = top.module("perf", perf);
    }

    Design::new(top)
}

/// Aggregate resources of one PE (including per-PE glue).
pub(crate) fn pe_resources(cfg: &PeConfig, variant: PeVariant) -> Resources {
    pe_resources_opts(cfg, variant, PeObservability::Stripped)
}

/// [`pe_resources`] with an explicit observability option.
pub(crate) fn pe_resources_opts(
    cfg: &PeConfig,
    variant: PeVariant,
    obs: PeObservability,
) -> Resources {
    let design = pe_design_opts(cfg, variant, obs);
    let mut r = module_resources(&design.top);
    r.add(glue_resources());
    r
}

/// Human-consumable per-PE resource report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeReport {
    pub luts: f64,
    pub ffs: f64,
    pub brams: u32,
    /// Slices under dense in-context packing (Table I).
    pub slices_in_context: u32,
    /// Slices under out-of-context synthesis (Figs. 8/9).
    pub slices_out_of_context: u32,
}

/// Produce the per-PE report for `cfg`.
pub fn pe_report(cfg: &PeConfig, variant: PeVariant) -> PeReport {
    pe_report_opts(cfg, variant, PeObservability::Stripped)
}

/// [`pe_report`] with an explicit observability option.
pub fn pe_report_opts(cfg: &PeConfig, variant: PeVariant, obs: PeObservability) -> PeReport {
    let r = pe_resources_opts(cfg, variant, obs);
    PeReport {
        luts: r.luts,
        ffs: r.ffs,
        brams: r.brams,
        slices_in_context: SliceModel::InContext.slices_rounded(&r),
        slices_out_of_context: SliceModel::OutOfContext.slices_rounded(&r),
    }
}

/// One PE population entry of a full-system composition.
#[derive(Debug, Clone)]
pub struct PePopulation {
    pub cfg: PeConfig,
    pub variant: PeVariant,
    pub count: u32,
}

/// Full-system (Table I style) report.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemReport {
    /// Total occupied slices including platform and interconnect.
    pub overall_slices: u32,
    /// Percentage of the XC7Z045's 54,650 slices.
    pub overall_pct: f64,
    /// Per-population `(name, slices_per_pe, pct_per_pe, count)`.
    pub(crate) per_pe: Vec<(String, u32, f64, u32)>,
    /// Total BRAMs (platform + PEs).
    pub brams: u32,
    /// Slices available on the device.
    pub available: u32,
}

/// Fixed platform BRAM usage (NVMe queues + Tiger4 page buffers).
const PLATFORM_BRAMS: u32 = 140;

/// Compose the complete Cosmos+ design: fixed platform, per-PE
/// interconnect (cheaper in our refined template), and the PEs.
pub fn system_report(pops: &[PePopulation]) -> SystemReport {
    let mut overall = calib::PLATFORM_SLICES;
    let mut brams = PLATFORM_BRAMS;
    let mut per_pe = Vec::with_capacity(pops.len());
    for p in pops {
        let r = pe_resources(&p.cfg, p.variant);
        let slices = SliceModel::InContext.slices(&r);
        let icn = match p.variant {
            PeVariant::Generated => calib::INTERCONNECT_OURS_SLICES,
            PeVariant::HandCrafted => calib::INTERCONNECT_BASE_SLICES,
        };
        overall += (slices + icn) * f64::from(p.count);
        brams += r.brams * p.count;
        per_pe.push((
            p.cfg.name.clone(),
            slices.round() as u32,
            slices / f64::from(XC7Z045::SLICES) * 100.0,
            p.count,
        ));
    }
    SystemReport {
        overall_slices: overall.round() as u32,
        overall_pct: overall / f64::from(XC7Z045::SLICES) * 100.0,
        per_pe,
        brams,
        available: XC7Z045::SLICES,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndp_ir::elaborate;
    use ndp_spec::parse;

    fn cfg(src: &str, name: &str) -> PeConfig {
        elaborate(&parse(src).unwrap(), name).unwrap()
    }

    const REFS: &str = "
        /* @autogen define parser RefPe with input = Ref, output = Ref */
        typedef struct { uint64_t src; uint64_t dst; uint32_t weight; } Ref;
    ";

    #[test]
    fn design_contains_all_template_components() {
        let c = cfg(REFS, "RefPe");
        let d = pe_design(&c, PeVariant::Generated);
        let names: Vec<&str> = d.top.children.iter().map(|ch| ch.inst_name.as_str()).collect();
        for unit in ["ctrl", "load", "tuple_in", "filter0", "transform", "tuple_out", "store"] {
            assert!(names.contains(&unit), "{unit} missing from template");
        }
    }

    #[test]
    fn stage_count_adds_filter_modules() {
        let src = "
            /* @autogen define parser F with input = T, output = T, stages = 3 */
            typedef struct { uint32_t v; } T;
        ";
        let c = cfg(src, "F");
        let d = pe_design(&c, PeVariant::Generated);
        let filters = d.top.children.iter().filter(|ch| ch.inst_name.starts_with("filter")).count();
        assert_eq!(filters, 3);
    }

    #[test]
    fn generated_pe_uses_exactly_one_bram() {
        // Paper: "each of our generated accelerators also uses a single
        // BRAM slice, which was not the case for the custom built
        // processing elements of [1]".
        let c = cfg(REFS, "RefPe");
        assert_eq!(pe_report(&c, PeVariant::Generated).brams, 1);
        assert_eq!(pe_report(&c, PeVariant::HandCrafted).brams, 0);
    }

    #[test]
    fn generated_pe_costs_more_than_baseline() {
        let c = cfg(REFS, "RefPe");
        let g = pe_report(&c, PeVariant::Generated);
        let b = pe_report(&c, PeVariant::HandCrafted);
        assert!(g.slices_in_context > b.slices_in_context);
    }

    #[test]
    fn ooc_slices_exceed_in_context_slices() {
        // Out-of-context synthesis packs less densely.
        let c = cfg(REFS, "RefPe");
        let r = pe_report(&c, PeVariant::Generated);
        assert!(r.slices_out_of_context > r.slices_in_context);
    }

    #[test]
    fn additional_stages_grow_resources_linearly() {
        // Fig. 9: "an almost linear correlation between the number of
        // stages and the slice requirement".
        let mk = |stages: u32| {
            let src = format!(
                "/* @autogen define parser F with input = T, output = T, stages = {stages} */
                 typedef struct {{ uint32_t a, b, c, d, e, f, g, h; }} T;"
            );
            pe_report(&cfg(&src, "F"), PeVariant::Generated).slices_out_of_context as f64
        };
        let s: Vec<f64> = (1..=5).map(mk).collect();
        let deltas: Vec<f64> = s.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = deltas.iter().sum::<f64>() / deltas.len() as f64;
        for d in &deltas {
            assert!((d - mean).abs() / mean < 0.05, "non-linear stage growth: {deltas:?}");
        }
        // ... and the per-stage increase is small vs the fixed template.
        assert!(mean / s[0] < 0.25, "stage cost {mean} vs fixed {}", s[0]);
    }

    #[test]
    fn system_report_composes_platform_and_pes() {
        let c = cfg(REFS, "RefPe");
        let rep = system_report(&[PePopulation {
            cfg: c.clone(),
            variant: PeVariant::Generated,
            count: 7,
        }]);
        let single = pe_report(&c, PeVariant::Generated);
        assert!(rep.overall_slices > 7 * single.slices_in_context);
        assert_eq!(rep.brams, PLATFORM_BRAMS + 7);
        assert_eq!(rep.available, XC7Z045::SLICES);
        assert!((rep.overall_pct - f64::from(rep.overall_slices) / 546.50).abs() < 0.01);
    }

    #[test]
    fn hand_crafted_interconnect_costs_more_per_pe() {
        let c = cfg(REFS, "RefPe");
        let ours = system_report(&[PePopulation {
            cfg: c.clone(),
            variant: PeVariant::Generated,
            count: 8,
        }]);
        let base = system_report(&[PePopulation {
            cfg: c.clone(),
            variant: PeVariant::HandCrafted,
            count: 8,
        }]);
        let ours_icn = f64::from(ours.overall_slices)
            - 8.0 * f64::from(pe_report(&c, PeVariant::Generated).slices_in_context)
            - calib::PLATFORM_SLICES;
        let base_icn = f64::from(base.overall_slices)
            - 8.0 * f64::from(pe_report(&c, PeVariant::HandCrafted).slices_in_context)
            - calib::PLATFORM_SLICES;
        assert!(base_icn > ours_icn);
    }

    #[test]
    fn counters_option_adds_hardware_and_cost() {
        let src = "
            /* @autogen define parser F with input = T, output = T, stages = 2 */
            typedef struct { uint32_t v; uint32_t w; } T;
        ";
        let c = cfg(src, "F");
        let stripped = pe_design_opts(&c, PeVariant::Generated, PeObservability::Stripped);
        let full = pe_design_opts(&c, PeVariant::Generated, PeObservability::Counters);
        let has_perf = |d: &Design| d.top.children.iter().any(|ch| ch.inst_name == "perf");
        assert!(!has_perf(&stripped));
        assert!(has_perf(&full));

        let rs = pe_resources_opts(&c, PeVariant::Generated, PeObservability::Stripped);
        let rc = pe_resources_opts(&c, PeVariant::Generated, PeObservability::Counters);
        // Register-file extension + 6 shared counters + 2 per-stage drop
        // counters: the observability tax is real but bounded.
        assert!(rc.luts > rs.luts, "counters must cost LUTs");
        assert!(rc.ffs > rs.ffs, "counters must cost FFs");
        assert!(rc.luts - rs.luts < 600.0, "tax out of range: {}", rc.luts - rs.luts);
    }

    #[test]
    fn stripped_design_matches_legacy_default() {
        let c = cfg(REFS, "RefPe");
        let default = pe_resources(&c, PeVariant::Generated);
        let stripped = pe_resources_opts(&c, PeVariant::Generated, PeObservability::Stripped);
        assert_eq!(default, stripped);
    }

    #[test]
    fn hand_crafted_ignores_observability() {
        // The PEs of [1] were never generated, so there is nothing to
        // optionally synthesize.
        let c = cfg(REFS, "RefPe");
        let s = pe_resources_opts(&c, PeVariant::HandCrafted, PeObservability::Stripped);
        let f = pe_resources_opts(&c, PeVariant::HandCrafted, PeObservability::Counters);
        assert_eq!(s, f);
    }

    #[test]
    fn float_fields_enable_float_comparator() {
        let src = "
            /* @autogen define parser F with input = T, output = T */
            typedef struct { float v; } T;
        ";
        let c = cfg(src, "F");
        let d = pe_design(&c, PeVariant::Generated);
        let has_float_cmp = d
            .top
            .primitives()
            .iter()
            .any(|p| matches!(p, Primitive::CompareUnit { float: true, .. }));
        assert!(has_float_cmp);
    }
}

#[cfg(test)]
mod calibration {
    //! Table I anchor checks: the four per-PE slice counts the resource
    //! model was calibrated against, plus the overall system rows that
    //! follow from them (see EXPERIMENTS.md).

    use super::*;
    use ndp_ir::elaborate;
    use ndp_spec::parse;

    /// The evaluation schemas: publication-graph nodes and edges sized to
    /// match the paper's Table I PEs (paper-PE: 80-byte records with an
    /// 8-byte string prefix; ref-PE: 20-byte edge records).
    pub(crate) const SCHEMAS: &str = "
        /* @autogen define parser PaperPe with input = Paper, output = Paper */
        /* @autogen define parser RefPe with input = Ref, output = Ref */
        typedef struct {
            uint64_t id;
            uint32_t year;
            uint32_t venue;
            uint32_t n_cits;
            uint32_t n_refs;
            /* @string(prefix = 8) */ uint8_t title[56];
        } Paper;
        typedef struct { uint64_t src; uint64_t dst; uint32_t weight; } Ref;
    ";

    fn anchor(name: &str, variant: PeVariant) -> u32 {
        let m = parse(SCHEMAS).unwrap();
        let cfg = elaborate(&m, name).unwrap();
        pe_report(&cfg, variant).slices_in_context
    }

    fn close(got: u32, want: u32, tol_pct: f64) {
        let err = (f64::from(got) - f64::from(want)).abs() / f64::from(want) * 100.0;
        assert!(err <= tol_pct, "got {got}, want {want} ({err:.2}% off)");
    }

    #[test]
    fn table1_ref_pe_anchors() {
        close(anchor("RefPe", PeVariant::Generated), 1446, 1.0);
        close(anchor("RefPe", PeVariant::HandCrafted), 1277, 1.0);
    }

    #[test]
    fn table1_paper_pe_anchors() {
        close(anchor("PaperPe", PeVariant::Generated), 14348, 1.0);
        close(anchor("PaperPe", PeVariant::HandCrafted), 9480, 1.0);
    }

    #[test]
    fn table1_overall_rows() {
        let m = parse(SCHEMAS).unwrap();
        let paper = elaborate(&m, "PaperPe").unwrap();
        let r#ref = elaborate(&m, "RefPe").unwrap();
        let mk = |variant| {
            system_report(&[
                PePopulation { cfg: paper.clone(), variant, count: 1 },
                PePopulation { cfg: r#ref.clone(), variant, count: 7 },
            ])
        };
        let ours = mk(PeVariant::Generated);
        let base = mk(PeVariant::HandCrafted);
        close(ours.overall_slices, 41934, 1.0);
        close(base.overall_slices, 40821, 1.0);
        assert!((ours.overall_pct - 76.73).abs() < 1.0);
        assert!((base.overall_pct - 74.70).abs() < 1.0);
    }
}
