//! The framework facade: one call from data-format specification to all
//! generated artifacts.
//!
//! This crate is the paper's "toolflow" entry point. Given the C-style
//! specification a database engineer writes (Fig. 4), [`generate`]
//! produces, for every `@autogen define parser` annotation:
//!
//! * the elaborated PE configuration (`ndp-ir`),
//! * the hardware design and its Verilog (`ndp-hdl`, `ndp-pe`),
//! * the resource report (slices in-context / out-of-context, BRAM),
//! * the register map and the header-only C software interface
//!   (`ndp-swgen`, the paper's Fig. 6), and
//! * a ready-to-run PE simulator factory.
//!
//! The two-sided promise of the paper — "hardware development expertise
//! is no longer required" and "the dependency between the accelerator
//! design and the interface development is removed" — maps to this crate
//! producing both sides from one source, in one call.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use ndp_hdl::verilog::emit_design;
use ndp_ir::{IrError, PeConfig};
use ndp_pe::regs::RegisterMap;
use ndp_pe::template::{pe_design_opts, pe_report_opts, PeObservability, PeReport, PeVariant};
use ndp_pe::PeSim;
use ndp_spec::{SpecError, SpecModule};
use std::fmt;
use std::path::Path;

/// Everything generated for one PE.
#[derive(Debug, Clone)]
pub struct GeneratedPe {
    /// Elaborated configuration (layouts, transform, operators, stages).
    pub config: PeConfig,
    /// Synthesizable-style Verilog of the accelerator.
    pub verilog: String,
    /// The header-only C software interface.
    pub c_header: String,
    /// Register map shared by hardware and software.
    pub register_map: RegisterMap,
    /// Resource estimate (slices, BRAM).
    pub report: PeReport,
}

impl GeneratedPe {
    /// Instantiate an executable simulator of this PE.
    pub fn simulator(&self) -> PeSim {
        PeSim::new(self.config.clone())
    }

    /// File stem used when writing artifacts (`<name>.v`, `<name>.h`).
    pub fn file_stem(&self) -> String {
        self.config.name.to_lowercase()
    }
}

/// The complete output of one generation run.
#[derive(Debug, Clone)]
pub struct Artifacts {
    /// One entry per `@autogen define parser` annotation, in source order.
    pub pes: Vec<GeneratedPe>,
}

impl Artifacts {
    /// Look up a generated PE by parser name.
    pub fn pe(&self, name: &str) -> Option<&GeneratedPe> {
        self.pes.iter().find(|p| p.config.name == name)
    }

    /// Write all artifacts (`.v`, `.h`) into `dir`.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        for pe in &self.pes {
            std::fs::write(dir.join(format!("{}.v", pe.file_stem())), &pe.verilog)?;
            std::fs::write(dir.join(format!("{}.h", pe.file_stem())), &pe.c_header)?;
        }
        Ok(())
    }
}

/// Errors of the end-to-end pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenError {
    /// Frontend (lexing/parsing) failure.
    Spec(SpecError),
    /// Contextual analysis / elaboration failure.
    Ir(IrError),
}

impl fmt::Display for GenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenError::Spec(e) => write!(f, "{e}"),
            GenError::Ir(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for GenError {}

impl From<SpecError> for GenError {
    fn from(e: SpecError) -> Self {
        GenError::Spec(e)
    }
}

impl From<IrError> for GenError {
    fn from(e: IrError) -> Self {
        GenError::Ir(e)
    }
}

/// Run the complete toolflow on a specification source.
pub fn generate(source: &str) -> Result<Artifacts, GenError> {
    generate_with_custom_ops(source, &[])
}

/// Like [`generate`], with user-registered custom operator names
/// (their semantics are bound on the PE simulator afterwards).
pub fn generate_with_custom_ops(source: &str, custom_ops: &[&str]) -> Result<Artifacts, GenError> {
    let module: SpecModule = ndp_spec::parse(source)?;
    let mut pes = Vec::with_capacity(module.parsers.len());
    for parser in &module.parsers {
        let config = ndp_ir::elaborate_with_custom_ops(&module, &parser.name, custom_ops)?;
        // Exported artifacts carry the full observability bank so that
        // Verilog, register map and C header stay mutually consistent
        // (the CNT_* window the header advertises really exists in RTL).
        let design = pe_design_opts(&config, PeVariant::Generated, PeObservability::Counters);
        let verilog = emit_design(&design);
        let c_header = ndp_swgen::generate_header(&config);
        let register_map = RegisterMap::for_config(&config);
        let report = pe_report_opts(&config, PeVariant::Generated, PeObservability::Counters);
        pes.push(GeneratedPe { config, verilog, c_header, register_map, report });
    }
    Ok(Artifacts { pes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndp_pe::regs::offsets;
    use ndp_pe::{MemBus, Mmio, PeDevice, VecMem};

    const FIG4: &str = "
        /* @autogen define parser Point3DTo2D with
           chunksize = 32, input = Point3D, output = Point2D,
           mapping = { output.x = input.y, output.y = input.z } */
        typedef struct { uint32_t x, y, z; } Point3D;
        typedef struct { uint32_t x, y; } Point2D;
    ";

    #[test]
    fn one_call_produces_all_artifacts() {
        let arts = generate(FIG4).unwrap();
        assert_eq!(arts.pes.len(), 1);
        let pe = arts.pe("Point3DTo2D").unwrap();
        assert!(pe.verilog.contains("module pe_Point3DTo2D"));
        assert!(pe.c_header.contains("POINT3DTO2D_START"));
        assert!(pe.report.slices_in_context > 0);
        assert_eq!(pe.register_map.stages, 1);
    }

    #[test]
    fn generated_simulator_is_functional() {
        let arts = generate(FIG4).unwrap();
        let mut pe = arts.pe("Point3DTo2D").unwrap().simulator();
        let mut mem = VecMem::new(1 << 16);
        let mut bytes = Vec::new();
        for v in [1u32, 2, 3, 4, 5, 6] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        mem.write_bytes(0, &bytes);
        pe.mmio_write(offsets::SRC_LEN, 24);
        pe.mmio_write(offsets::DST_ADDR_LO, 0x8000);
        pe.mmio_write(offsets::DST_CAPACITY, 4096);
        pe.mmio_write(offsets::START, 1);
        let res = pe.execute(&mut mem);
        assert_eq!(res.tuples_in, 2);
        assert_eq!(res.tuples_out, 2);
        let mut out = [0u8; 16];
        mem.read_bytes(0x8000, &mut out);
        // Projection: (y, z) of each point.
        assert_eq!(&out[0..4], &2u32.to_le_bytes());
        assert_eq!(&out[4..8], &3u32.to_le_bytes());
        assert_eq!(&out[8..12], &5u32.to_le_bytes());
        assert_eq!(&out[12..16], &6u32.to_le_bytes());
    }

    #[test]
    fn frontend_errors_surface_with_location() {
        let err = generate("typedef struct { uint32_t x } Broken;").unwrap_err();
        match err {
            GenError::Spec(e) => assert!(e.span.line >= 1),
            other => panic!("expected spec error, got {other}"),
        }
    }

    #[test]
    fn elaboration_errors_surface() {
        let err = generate(
            "/* @autogen define parser P with input = Missing, output = Missing */
             typedef struct { uint32_t x; } Other;",
        )
        .unwrap_err();
        assert!(matches!(err, GenError::Ir(IrError::UnknownStruct { .. })));
    }

    #[test]
    fn multiple_parsers_generate_in_source_order() {
        let src = "
            /* @autogen define parser A with input = T, output = T */
            /* @autogen define parser B with input = T, output = T, stages = 3 */
            typedef struct { uint64_t k; uint32_t v; } T;
        ";
        let arts = generate(src).unwrap();
        assert_eq!(arts.pes.len(), 2);
        assert_eq!(arts.pes[0].config.name, "A");
        assert_eq!(arts.pes[1].config.name, "B");
        assert_eq!(arts.pes[1].register_map.stages, 3);
        assert!(
            arts.pes[1].report.slices_in_context > arts.pes[0].report.slices_in_context,
            "3-stage PE must cost more"
        );
    }

    #[test]
    fn artifacts_write_files() {
        let arts = generate(FIG4).unwrap();
        let dir = std::env::temp_dir().join("ndp_core_test_artifacts");
        let _ = std::fs::remove_dir_all(&dir);
        arts.write_to(&dir).unwrap();
        assert!(dir.join("point3dto2d.v").exists());
        assert!(dir.join("point3dto2d.h").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn custom_ops_flow_through_the_pipeline() {
        let src = "
            /* @autogen define parser F with input = T, output = T,
               operators = { eq, within_mask } */
            typedef struct { uint64_t bits; } T;
        ";
        assert!(generate(src).is_err(), "unregistered custom op must fail");
        let arts = generate_with_custom_ops(src, &["within_mask"]).unwrap();
        let pe = arts.pe("F").unwrap();
        assert!(pe.c_header.contains("#define F_OP_WITHIN_MASK 2"));
        let mut sim = pe.simulator();
        assert!(sim.bind_custom_op("within_mask", |_, a, b| a & !b == 0));
    }
}
