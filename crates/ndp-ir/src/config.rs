//! Elaborated processing-element configurations.
//!
//! [`elaborate`] runs the full contextual-analysis pipeline for one
//! `@autogen define parser` annotation and produces a [`PeConfig`] — the
//! single source of truth consumed by the hardware template (`ndp-pe`),
//! the resource/HDL backend (`ndp-hdl`) and the software-interface
//! generator (`ndp-swgen`).

use crate::error::{IrError, IrResult};
use crate::layout::{compute_layout, TupleLayout};
use crate::mapping::{derive_transform, TransformPlan};
use crate::passes::{resolve_strings, scalarize};
use crate::tree::build_tree;
use ndp_spec::{PrimTy, SpecModule};

/// The comparator operations of the paper's standard set
/// (`≠, ==, >, >=, <, <=, nop`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Always pass (predicate disabled).
    Nop,
    Ne,
    Eq,
    Gt,
    Ge,
    Lt,
    Le,
}

impl CmpOp {
    /// All standard operators with their canonical names and register
    /// encodings. `nop` is code 0 so a zero-initialized control register
    /// file lets every tuple pass.
    pub(crate) const STANDARD: [(CmpOp, &'static str); 7] = [
        (CmpOp::Nop, "nop"),
        (CmpOp::Ne, "ne"),
        (CmpOp::Eq, "eq"),
        (CmpOp::Gt, "gt"),
        (CmpOp::Ge, "ge"),
        (CmpOp::Lt, "lt"),
        (CmpOp::Le, "le"),
    ];

    /// Canonical textual name (as used in `operators = {...}` sets).
    #[cfg(test)]
    pub(crate) fn name(self) -> &'static str {
        match self {
            CmpOp::Nop => "nop",
            CmpOp::Ne => "ne",
            CmpOp::Eq => "eq",
            CmpOp::Gt => "gt",
            CmpOp::Ge => "ge",
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
        }
    }

    /// Parse a canonical name.
    pub(crate) fn from_name(name: &str) -> Option<Self> {
        Self::STANDARD.iter().find(|(_, n)| *n == name).map(|(op, _)| *op)
    }

    /// Evaluate the comparison on raw field bits, interpreted according to
    /// the field's primitive type. `a` is the tuple element, `b` the
    /// reference value from the control register (both zero-extended into
    /// 64-bit words, exactly like the hardware lanes).
    ///
    /// This is the *semantic definition* shared by the generated hardware
    /// model and the ARM software fallback, so the two can never diverge.
    pub fn eval(self, prim: PrimTy, a: u64, b: u64) -> bool {
        use std::cmp::Ordering;
        let ord = match prim {
            PrimTy::U8 | PrimTy::U16 | PrimTy::U32 | PrimTy::U64 => a.cmp(&b),
            PrimTy::I8 => (a as u8 as i8).cmp(&(b as u8 as i8)),
            PrimTy::I16 => (a as u16 as i16).cmp(&(b as u16 as i16)),
            PrimTy::I32 => (a as u32 as i32).cmp(&(b as u32 as i32)),
            PrimTy::I64 => (a as i64).cmp(&(b as i64)),
            PrimTy::F32 => {
                let (fa, fb) = (f32::from_bits(a as u32), f32::from_bits(b as u32));
                match fa.partial_cmp(&fb) {
                    Some(o) => o,
                    // NaN never satisfies an ordered predicate; `!=` with a
                    // NaN operand is true, which `Ordering::Greater` vs
                    // `Less` cannot express — handle NaN explicitly.
                    None => return matches!(self, CmpOp::Ne | CmpOp::Nop),
                }
            }
            PrimTy::F64 => {
                let (fa, fb) = (f64::from_bits(a), f64::from_bits(b));
                match fa.partial_cmp(&fb) {
                    Some(o) => o,
                    None => return matches!(self, CmpOp::Ne | CmpOp::Nop),
                }
            }
        };
        match self {
            CmpOp::Nop => true,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
        }
    }
}

/// Aggregation reductions the generated Aggregation Unit can compute
/// over a selected lane of the *passing* tuples (extension implementing
/// the paper's outlook: "leverage the data-parallelism of the
/// architecture to perform more compute-intensive tasks").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggOp {
    /// Count passing tuples.
    Count,
    /// Wrapping 64-bit sum of the selected lane.
    Sum,
    /// Minimum of the selected lane (type-aware ordering).
    Min,
    /// Maximum of the selected lane (type-aware ordering).
    Max,
}

impl AggOp {
    /// Register encoding (`AGG_OP`); 0 means aggregation disabled.
    pub fn code(self) -> u32 {
        match self {
            AggOp::Count => 1,
            AggOp::Sum => 2,
            AggOp::Min => 3,
            AggOp::Max => 4,
        }
    }

    /// Decode a register value.
    pub fn from_code(code: u32) -> Option<Self> {
        Some(match code {
            1 => AggOp::Count,
            2 => AggOp::Sum,
            3 => AggOp::Min,
            4 => AggOp::Max,
            _ => return None,
        })
    }

    /// Canonical annotation spelling.
    pub fn name(self) -> &'static str {
        match self {
            AggOp::Count => "count",
            AggOp::Sum => "sum",
            AggOp::Min => "min",
            AggOp::Max => "max",
        }
    }

    /// Parse an annotation spelling.
    pub(crate) fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "count" => AggOp::Count,
            "sum" => AggOp::Sum,
            "min" => AggOp::Min,
            "max" => AggOp::Max,
            _ => return None,
        })
    }
}

/// One operator available to the generated Compare Unit: either a standard
/// [`CmpOp`] or a user-registered custom operation (the paper's
/// extensibility hook realized as Verilog/VHDL interfacing in Chisel).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpSpec {
    /// Operator name as written in the annotation.
    pub name: String,
    /// Encoding written into the `FILTER_OP_i` control register.
    pub code: u32,
    /// `Some` for standard operators; `None` for custom ones whose
    /// semantics are supplied at PE-construction time.
    pub op: Option<CmpOp>,
}

/// A fully elaborated processing-element configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PeConfig {
    /// PE name from the annotation.
    pub name: String,
    /// Input tuple layout (what the Tuple Input Buffer parses).
    pub input: TupleLayout,
    /// Output tuple layout (what the Tuple Output Buffer serializes).
    pub output: TupleLayout,
    /// Field moves implementing the Data Transformation Unit.
    pub transform: TransformPlan,
    /// Number of chained filtering units.
    pub stages: u32,
    /// Operator set of every Compare Unit, in encoding order.
    pub operators: Vec<OpSpec>,
    /// Aggregation reductions the PE's Aggregation Unit supports
    /// (empty = no aggregation hardware generated).
    pub aggregates: Vec<AggOp>,
    /// Processing-block granularity in bytes (32 KiB in the paper).
    pub chunk_bytes: u32,
}

impl PeConfig {
    /// How many whole input tuples fit one processing block.
    pub fn tuples_per_chunk(&self) -> u64 {
        u64::from(self.chunk_bytes) / self.input.tuple_bytes().max(1)
    }

    /// Look up an operator encoding by name.
    pub fn op_code(&self, name: &str) -> Option<u32> {
        self.operators.iter().find(|o| o.name == name).map(|o| o.code)
    }

    /// The `nop` encoding (always present; 0 by construction).
    pub fn nop_code(&self) -> u32 {
        self.op_code("nop").expect("nop is always in the operator set")
    }

    /// Does this PE include the given aggregation reduction?
    pub fn supports_aggregate(&self, op: AggOp) -> bool {
        self.aggregates.contains(&op)
    }
}

/// Elaborate the parser named `parser_name` from `module`, using only the
/// standard operator set (custom names in the annotation are rejected).
pub fn elaborate(module: &SpecModule, parser_name: &str) -> IrResult<PeConfig> {
    elaborate_with_custom_ops(module, parser_name, &[])
}

/// Elaborate every parser defined in `module`.
pub fn elaborate_all(module: &SpecModule) -> IrResult<Vec<PeConfig>> {
    module.parsers.iter().map(|p| elaborate(module, &p.name)).collect()
}

/// Elaborate with additional user-registered custom operator names
/// (their semantics are bound later, at PE-construction time).
pub fn elaborate_with_custom_ops(
    module: &SpecModule,
    parser_name: &str,
    custom_ops: &[&str],
) -> IrResult<PeConfig> {
    let spec = module
        .find_parser(parser_name)
        .ok_or_else(|| IrError::UnknownParser(parser_name.to_string()))?;

    let input_tree = scalarize(resolve_strings(build_tree(module, &spec.input, &spec.name)?));
    let output_tree = scalarize(resolve_strings(build_tree(module, &spec.output, &spec.name)?));
    let input = compute_layout(&spec.input, &input_tree)?;
    let output = compute_layout(&spec.output, &output_tree)?;
    let transform = derive_transform(&spec.name, &input, &output, &spec.mapping)?;

    let chunk_bytes = spec.chunk_kib * 1024;
    if input.tuple_bytes() > u64::from(chunk_bytes) || output.tuple_bytes() > u64::from(chunk_bytes)
    {
        return Err(IrError::TupleLargerThanChunk {
            parser: spec.name.clone(),
            tuple_bytes: input.tuple_bytes().max(output.tuple_bytes()),
            chunk_bytes: u64::from(chunk_bytes),
        });
    }

    let operators = build_operator_set(&spec.name, spec.operators.as_deref(), custom_ops)?;
    let mut aggregates = Vec::new();
    if let Some(names) = &spec.aggregates {
        for n in names {
            let op = AggOp::from_name(n).ok_or_else(|| IrError::UnknownOperator {
                parser: spec.name.clone(),
                name: format!("{n} (aggregate; expected count, sum, min or max)"),
            })?;
            aggregates.push(op);
        }
    }

    Ok(PeConfig {
        name: spec.name.clone(),
        input,
        output,
        transform,
        stages: spec.stages,
        operators,
        aggregates,
        chunk_bytes,
    })
}

/// Build the operator set: `nop` is always included at code 0; requested
/// operators (or the full standard set by default) follow in a stable
/// encoding order; custom names must appear in `custom_ops`.
fn build_operator_set(
    parser: &str,
    requested: Option<&[String]>,
    custom_ops: &[&str],
) -> IrResult<Vec<OpSpec>> {
    let mut out = vec![OpSpec { name: "nop".into(), code: 0, op: Some(CmpOp::Nop) }];
    let names: Vec<String> = match requested {
        Some(list) => list.to_vec(),
        None => CmpOp::STANDARD
            .iter()
            .filter(|(op, _)| *op != CmpOp::Nop)
            .map(|(_, n)| n.to_string())
            .collect(),
    };
    for name in names {
        if name == "nop" {
            continue; // already present at code 0
        }
        let code = out.len() as u32;
        match CmpOp::from_name(&name) {
            Some(op) => out.push(OpSpec { name, code, op: Some(op) }),
            None if custom_ops.contains(&name.as_str()) => {
                out.push(OpSpec { name, code, op: None });
            }
            None => {
                return Err(IrError::UnknownOperator { parser: parser.into(), name });
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndp_spec::parse;

    const FIG4: &str = "
        /* @autogen define parser Point3DTo2D with
           chunksize = 32, input = Point3D, output = Point2D,
           mapping = { output.x = input.y, output.y = input.z } */
        typedef struct { uint32_t x, y, z; } Point3D;
        typedef struct { uint32_t x, y; } Point2D;
    ";

    #[test]
    fn elaborates_paper_fig4() {
        let m = parse(FIG4).unwrap();
        let cfg = elaborate(&m, "Point3DTo2D").unwrap();
        assert_eq!(cfg.name, "Point3DTo2D");
        assert_eq!(cfg.chunk_bytes, 32 * 1024);
        assert_eq!(cfg.input.tuple_bits, 96);
        assert_eq!(cfg.output.tuple_bits, 64);
        assert_eq!(cfg.stages, 1);
        assert_eq!(cfg.tuples_per_chunk(), 32 * 1024 / 12);
        // Standard set: nop + 6 comparisons.
        assert_eq!(cfg.operators.len(), 7);
        assert_eq!(cfg.nop_code(), 0);
    }

    #[test]
    fn unknown_parser_is_an_error() {
        let m = parse(FIG4).unwrap();
        assert!(matches!(elaborate(&m, "nope"), Err(IrError::UnknownParser(_))));
    }

    #[test]
    fn elaborate_all_returns_each_parser() {
        let m = parse(FIG4).unwrap();
        assert_eq!(elaborate_all(&m).unwrap().len(), 1);
    }

    #[test]
    fn custom_operator_requires_registration() {
        let src = "
            /* @autogen define parser F with input = A, output = A,
               operators = { eq, popcnt_ge } */
            typedef struct { uint32_t x; } A;
        ";
        let m = parse(src).unwrap();
        assert!(matches!(elaborate(&m, "F"), Err(IrError::UnknownOperator { .. })));
        let cfg = elaborate_with_custom_ops(&m, "F", &["popcnt_ge"]).unwrap();
        assert_eq!(cfg.operators.len(), 3); // nop, eq, popcnt_ge
        let custom = cfg.operators.last().unwrap();
        assert_eq!(custom.name, "popcnt_ge");
        assert_eq!(custom.op, None);
        assert_eq!(custom.code, 2);
    }

    #[test]
    fn nop_always_code_zero_even_if_requested_late() {
        let src = "
            /* @autogen define parser F with input = A, output = A,
               operators = { eq, nop, ne } */
            typedef struct { uint32_t x; } A;
        ";
        let m = parse(src).unwrap();
        let cfg = elaborate(&m, "F").unwrap();
        assert_eq!(cfg.op_code("nop"), Some(0));
        assert_eq!(cfg.op_code("eq"), Some(1));
        assert_eq!(cfg.op_code("ne"), Some(2));
    }

    #[test]
    fn tuple_larger_than_chunk_rejected() {
        let src = "
            /* @autogen define parser F with chunksize = 1, input = A, output = A */
            typedef struct { uint8_t big[2048]; } A;
        ";
        let m = parse(src).unwrap();
        assert!(matches!(elaborate(&m, "F"), Err(IrError::TupleLargerThanChunk { .. })));
    }

    // ---- CmpOp semantics ----

    #[test]
    fn unsigned_compare_semantics() {
        use PrimTy::U32;
        assert!(CmpOp::Eq.eval(U32, 5, 5));
        assert!(CmpOp::Ne.eval(U32, 5, 6));
        assert!(CmpOp::Gt.eval(U32, 6, 5));
        assert!(!CmpOp::Gt.eval(U32, 5, 5));
        assert!(CmpOp::Ge.eval(U32, 5, 5));
        assert!(CmpOp::Lt.eval(U32, 4, 5));
        assert!(CmpOp::Le.eval(U32, 5, 5));
        assert!(CmpOp::Nop.eval(U32, 0, u64::MAX));
    }

    #[test]
    fn signed_compare_uses_twos_complement() {
        use PrimTy::I32;
        let minus_one = (-1i32) as u32 as u64;
        assert!(CmpOp::Lt.eval(I32, minus_one, 0));
        assert!(CmpOp::Gt.eval(I32, 0, minus_one));
        // Unsigned interpretation would invert this.
        assert!(CmpOp::Gt.eval(PrimTy::U32, minus_one, 0));
    }

    #[test]
    fn narrow_signed_types_sign_extend_from_their_width() {
        use PrimTy::I8;
        let minus_two = (-2i8) as u8 as u64; // 0xFE, upper bits zero
        assert!(CmpOp::Lt.eval(I8, minus_two, 1));
        assert!(CmpOp::Le.eval(I8, minus_two, (-2i8) as u8 as u64));
    }

    #[test]
    fn float_compare_semantics() {
        use PrimTy::{F32, F64};
        let a = (1.5f32).to_bits() as u64;
        let b = (2.5f32).to_bits() as u64;
        assert!(CmpOp::Lt.eval(F32, a, b));
        assert!(CmpOp::Ne.eval(F32, a, b));
        let x = (9.25f64).to_bits();
        assert!(CmpOp::Eq.eval(F64, x, x));
        // Negative zero equals positive zero (IEEE-754).
        assert!(CmpOp::Eq.eval(F64, (-0.0f64).to_bits(), (0.0f64).to_bits()));
    }

    #[test]
    fn nan_satisfies_only_ne_and_nop() {
        use PrimTy::F32;
        let nan = f32::NAN.to_bits() as u64;
        let one = 1.0f32.to_bits() as u64;
        for op in [CmpOp::Eq, CmpOp::Gt, CmpOp::Ge, CmpOp::Lt, CmpOp::Le] {
            assert!(!op.eval(F32, nan, one), "{op:?} must fail on NaN");
            assert!(!op.eval(F32, one, nan), "{op:?} must fail on NaN");
        }
        assert!(CmpOp::Ne.eval(F32, nan, one));
        assert!(CmpOp::Ne.eval(F32, nan, nan));
        assert!(CmpOp::Nop.eval(F32, nan, nan));
    }

    #[test]
    fn op_name_round_trip() {
        for (op, name) in CmpOp::STANDARD {
            assert_eq!(CmpOp::from_name(name), Some(op));
            assert_eq!(op.name(), name);
        }
        assert_eq!(CmpOp::from_name("xor"), None);
    }
}
