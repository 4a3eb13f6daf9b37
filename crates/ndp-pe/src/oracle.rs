//! Functional semantics of filtering and transformation.
//!
//! This module is the single definition of *what* a PE computes,
//! independent of *how long* it takes. It is used three ways:
//!
//! 1. as the reference oracle the cycle-level model is tested against,
//! 2. as the ARM **software NDP** implementation (the paper's SW bars in
//!    Fig. 7 run "the same general algorithm" on the device CPU), and
//! 3. as a fast bulk path for large simulations where per-cycle stepping
//!    would be wasteful (timing is then supplied by the validated
//!    analytic estimator).
//!
//! The byte-level implementation is allocation-free per tuple: filters
//! read lanes directly out of the packed bytes, and the transformation is
//! a precomputed list of byte-range copies — mirroring the generated
//! hardware, where both are pure routing.
//!
//! A rule chain is **compiled once per job** into a [`FilterProgram`]
//! ([`BlockProcessor::compile`]), the way the PE latches its rule
//! registers once and then streams tuples through a fixed datapath.
//! [`CmpOp::eval`] stays the semantic definition of a comparison; the
//! program is its executor, and the tests below tie the two together
//! over every operator, type and boundary operand.

use crate::tuple::{LayoutCodec, Slot};
use ndp_ir::{CmpOp, PeConfig};
use ndp_spec::PrimTy;
use std::collections::HashMap;
use std::sync::Arc;

/// One configured filtering stage: compare lane `lane` against `value`
/// under operator `op_code` (an encoding from the PE's operator set).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilterRule {
    pub lane: u32,
    pub op_code: u32,
    pub value: u64,
}

impl FilterRule {
    /// A rule that lets every tuple pass (operator `nop`).
    pub fn pass() -> Self {
        FilterRule { lane: 0, op_code: 0, value: 0 }
    }
}

/// Semantics of a custom comparator operation.
pub(crate) type CustomOpFn = Arc<dyn Fn(PrimTy, u64, u64) -> bool + Send + Sync>;

/// Operator-code dispatch table built from a PE configuration.
///
/// Standard codes evaluate via [`CmpOp::eval`]; custom codes dispatch to
/// registered closures (the paper's Verilog/VHDL extension hook). Codes
/// outside the set evaluate to *false*, matching the hardware's `default`
/// case.
#[derive(Clone)]
pub struct OpTable {
    standard: Vec<Option<CmpOp>>,
    custom: HashMap<u32, CustomOpFn>,
}

impl std::fmt::Debug for OpTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OpTable")
            .field("standard", &self.standard)
            .field("custom_codes", &self.custom.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl OpTable {
    /// Build the table from the configuration's operator set. Custom
    /// operators start unbound; `OpTable::bind_custom` attaches their
    /// semantics.
    pub fn from_config(cfg: &PeConfig) -> Self {
        let max_code = cfg.operators.iter().map(|o| o.code).max().unwrap_or(0) as usize;
        let mut standard = vec![None; max_code + 1];
        for op in &cfg.operators {
            standard[op.code as usize] = op.op;
        }
        OpTable { standard, custom: HashMap::new() }
    }

    /// Bind the semantics of the custom operator named `name`.
    ///
    /// Returns `false` if the configuration has no such operator.
    pub(crate) fn bind_custom(
        &mut self,
        cfg: &PeConfig,
        name: &str,
        f: impl Fn(PrimTy, u64, u64) -> bool + Send + Sync + 'static,
    ) -> bool {
        match cfg.operators.iter().find(|o| o.name == name && o.op.is_none()) {
            Some(op) => {
                self.custom.insert(op.code, Arc::new(f));
                true
            }
            None => false,
        }
    }

    /// Human-readable symbol of operator `code` (explain/debug
    /// rendering). Encodings are per-configuration, so there is no
    /// global code→symbol map; unknown codes print as `op#N`.
    pub fn symbol(&self, code: u32) -> String {
        match self.standard.get(code as usize) {
            Some(Some(op)) => match op {
                CmpOp::Nop => "nop",
                CmpOp::Ne => "!=",
                CmpOp::Eq => "==",
                CmpOp::Gt => ">",
                CmpOp::Ge => ">=",
                CmpOp::Lt => "<",
                CmpOp::Le => "<=",
            }
            .to_string(),
            _ if self.custom.contains_key(&code) => format!("custom#{code}"),
            _ => format!("op#{code}"),
        }
    }

    /// What operator `code` evaluates: a standard comparison, else a
    /// bound custom closure, else nothing (the code is outside the set or
    /// a custom operator that was never bound).
    fn resolve(&self, code: u32) -> Option<Callee> {
        if let Some(Some(op)) = self.standard.get(code as usize) {
            return Some(Callee::Std(*op));
        }
        self.custom.get(&code).map(|f| Callee::Custom(f.clone()))
    }
}

/// Running reduction over the passing tuples of one or more blocks
/// (the Aggregation Unit's semantics, shared by the cycle-level model
/// and the ARM software path).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggAccumulator {
    pub op: ndp_ir::AggOp,
    /// Lane feeding the reduction (ignored by `Count`).
    pub lane: u32,
    prim: PrimTy,
    state: u64,
    seen: bool,
}

impl AggAccumulator {
    /// Start an accumulator for `op` over `lane` of `bp`'s input layout.
    pub fn new(bp: &BlockProcessor, op: ndp_ir::AggOp, lane: u32) -> Option<Self> {
        let prim = bp.lane_prim(lane)?;
        Some(Self { op, lane, prim, state: 0, seen: false })
    }

    /// Fold one passing tuple's lane value in.
    pub fn update(&mut self, lane_value: u64) {
        use ndp_ir::AggOp;
        match self.op {
            AggOp::Count => self.state = self.state.wrapping_add(1),
            AggOp::Sum => self.state = self.state.wrapping_add(lane_value),
            AggOp::Min => {
                if !self.seen || CmpOp::Lt.eval(self.prim, lane_value, self.state) {
                    self.state = lane_value;
                }
            }
            AggOp::Max => {
                if !self.seen || CmpOp::Gt.eval(self.prim, lane_value, self.state) {
                    self.state = lane_value;
                }
            }
        }
        self.seen = true;
    }

    /// Current accumulator value (0 if nothing passed yet).
    pub fn value(&self) -> u64 {
        self.state
    }

    /// Whether any tuple has been folded in (distinguishes "min = 0"
    /// from "no rows").
    pub fn any(&self) -> bool {
        self.seen
    }
}

/// Statistics of one processed block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OracleStats {
    /// Complete tuples parsed from the input.
    pub tuples_in: u32,
    /// Tuples that passed every filtering stage.
    pub tuples_out: u32,
    /// Result bytes produced.
    pub(crate) bytes_out: u32,
    /// Trailing input bytes that did not form a complete tuple (dropped,
    /// like the hardware input buffer at end-of-block).
    pub(crate) trailing_bytes: u32,
}

/// Precompiled filter + transform executor for one PE configuration.
pub struct BlockProcessor {
    in_codec: LayoutCodec,
    /// Per lane: packed byte offset and primitive type. A lane is exactly
    /// `prim.bytes()` wide — 1, 2, 4 or 8 (checked in [`Self::new`]).
    lane_slots: Vec<(usize, PrimTy)>,
    /// Byte moves `(src_off, dst_off, len)` implementing the transform,
    /// in destination order with adjacent ranges merged.
    byte_moves: Vec<(usize, usize, usize)>,
    out_tuple_bytes: usize,
}

/// A rule chain compiled for one [`BlockProcessor`]: what the PE's rule
/// registers hold once a job is configured. Each rule is resolved to a
/// flat op — lane offset, width and comparison are fixed here, so a
/// tuple costs a fixed-width load and an unsigned compare per op instead
/// of an operator-table lookup and a `(PrimTy, CmpOp)` dispatch.
#[derive(Clone)]
pub struct FilterProgram {
    /// Conjunction, in rule order; `nop` rules are dropped. A rule no
    /// tuple can satisfy collapses the program to a single [`Op::Reject`].
    ops: Vec<Op>,
}

#[derive(Clone)]
enum Op {
    /// An integer lane under a standard operator.
    Cmp(IntCmp),
    /// A float lane or a custom operator, evaluated through its
    /// definition on the raw lane value.
    Call { off: usize, prim: PrimTy, reference: u64, f: Callee },
    /// Out-of-range lane, or an operator code that is outside the set or
    /// was never bound: the hardware's `default` case, no tuple passes.
    Reject,
}

/// What an operator code evaluates.
#[derive(Clone)]
enum Callee {
    Std(CmpOp),
    Custom(CustomOpFn),
}

/// `lane <op> reference` on an integer lane as one unsigned compare.
///
/// Both sides go through the same order-preserving map into `u64`: an
/// unsigned lane is zero-extended and compared with the *untruncated*
/// register value (so `u32 lane < 2^32 + 5` holds for every tuple, as
/// [`CmpOp::eval`] defines it); a signed lane is compared at its own
/// width, so the register is truncated to it and both sides have the
/// lane's sign bit flipped, which orders two's complement like unsigned.
#[derive(Clone, Copy)]
struct IntCmp {
    off: usize,
    /// Lane width in bytes: 1, 2, 4 or 8.
    width: u32,
    /// The lane's sign bit for signed lanes, 0 for unsigned ones.
    flip: u64,
    /// The mapped reference value.
    key: u64,
    /// Accepted orderings of lane against reference: [`LT`] | [`EQ`] | [`GT`].
    accept: u8,
}

const LT: u8 = 1;
const EQ: u8 = 2;
const GT: u8 = 4;

impl IntCmp {
    fn new(off: usize, prim: PrimTy, op: CmpOp, reference: u64) -> Self {
        let accept = match op {
            CmpOp::Nop => LT | EQ | GT,
            CmpOp::Ne => LT | GT,
            CmpOp::Eq => EQ,
            CmpOp::Gt => GT,
            CmpOp::Ge => EQ | GT,
            CmpOp::Lt => LT,
            CmpOp::Le => LT | EQ,
        };
        let (flip, key) = if prim.is_signed() {
            let sign = 1u64 << (prim.bits() - 1);
            (sign, (reference & (sign | (sign - 1))) ^ sign)
        } else {
            (0, reference)
        };
        Self { off, width: prim.bytes(), flip, key, accept }
    }

    #[inline(always)]
    fn accepts(&self, lane: u64) -> bool {
        let bit = match (lane ^ self.flip).cmp(&self.key) {
            std::cmp::Ordering::Less => LT,
            std::cmp::Ordering::Equal => EQ,
            std::cmp::Ordering::Greater => GT,
        };
        self.accept & bit != 0
    }
}

/// Zero-extended little-endian load of the `W`-byte lane at `off`.
#[inline(always)]
fn load<const W: usize>(tuple: &[u8], off: usize) -> u64 {
    let mut word = [0u8; 8];
    word[..W].copy_from_slice(&tuple[off..off + W]);
    u64::from_le_bytes(word)
}

/// [`load`] for a lane width known only at run time (1, 2, 4 or 8).
#[inline(always)]
fn load_lane(tuple: &[u8], off: usize, width: u32) -> u64 {
    match width {
        1 => load::<1>(tuple, off),
        2 => load::<2>(tuple, off),
        4 => load::<4>(tuple, off),
        _ => load::<8>(tuple, off),
    }
}

impl FilterProgram {
    /// Does `tuple` (packed bytes in the layout the program was compiled
    /// for) pass every rule?
    #[inline]
    pub fn passes(&self, tuple: &[u8]) -> bool {
        self.ops.iter().all(|op| match op {
            Op::Cmp(c) => c.accepts(load_lane(tuple, c.off, c.width)),
            Op::Call { off, prim, reference, f } => {
                let lane = load_lane(tuple, *off, prim.bytes());
                match f {
                    Callee::Std(op) => op.eval(*prim, lane, *reference),
                    Callee::Custom(f) => f(*prim, lane, *reference),
                }
            }
            Op::Reject => false,
        })
    }
}

impl BlockProcessor {
    /// Precompile for `cfg`.
    pub fn new(cfg: &PeConfig) -> Self {
        let in_codec = LayoutCodec::new(&cfg.input);
        let out_codec = LayoutCodec::new(&cfg.output);

        let mut lane_slots = vec![(0usize, PrimTy::U8); in_codec.lanes()];
        for idx in 0..cfg.input.fields.len() {
            if let Slot::Lane { lane, prim } = in_codec.slot(idx) {
                let (off, len) = in_codec.field_range(idx);
                assert_eq!(len, prim.bytes() as usize, "lane {lane} is not as wide as its type");
                lane_slots[lane as usize] = (off, prim);
            }
        }

        let mut moves: Vec<(usize, usize, usize)> = cfg
            .transform
            .moves
            .iter()
            .map(|mv| {
                let (src_off, len) = in_codec.field_range(mv.src);
                let (dst_off, dlen) = out_codec.field_range(mv.dst);
                debug_assert_eq!(len, dlen);
                (src_off, dst_off, len)
            })
            .collect();
        // Output fields are written once each, so destination order is
        // free to choose; in it, a run of fields that is contiguous on
        // both sides is one copy (the identity transform: one per tuple).
        moves.sort_unstable_by_key(|&(_, dst, _)| dst);
        let mut byte_moves: Vec<(usize, usize, usize)> = Vec::with_capacity(moves.len());
        for (src, dst, len) in moves {
            match byte_moves.last_mut() {
                Some((s, d, l)) if *s + *l == src && *d + *l == dst => *l += len,
                _ => byte_moves.push((src, dst, len)),
            }
        }

        Self { in_codec, lane_slots, byte_moves, out_tuple_bytes: out_codec.tuple_bytes() }
    }

    /// Input tuple size in bytes.
    pub fn in_tuple_bytes(&self) -> usize {
        self.in_codec.tuple_bytes()
    }

    /// Number of comparator lanes of the input layout.
    pub fn lanes(&self) -> usize {
        self.lane_slots.len()
    }

    /// Output tuple size in bytes.
    pub fn out_tuple_bytes(&self) -> usize {
        self.out_tuple_bytes
    }

    /// Whether the transformation is the identity on the input layout:
    /// output tuples are byte-for-byte the input tuples. Post-PE
    /// (residual) predicate evaluation over the output stream is only
    /// meaningful in that case — the input lanes still exist there.
    pub fn identity_transform(&self) -> bool {
        self.byte_moves == [(0, 0, self.out_tuple_bytes)]
            && self.out_tuple_bytes == self.in_codec.tuple_bytes()
    }

    /// Raw lane value of `tuple` (packed bytes), zero-extended like the
    /// hardware; `None` for out-of-range lanes.
    pub fn lane_value(&self, tuple: &[u8], lane: u32) -> Option<u64> {
        let &(off, prim) = self.lane_slots.get(lane as usize)?;
        Some(load_lane(tuple, off, prim.bytes()))
    }

    /// Primitive type of a lane.
    pub(crate) fn lane_prim(&self, lane: u32) -> Option<PrimTy> {
        self.lane_slots.get(lane as usize).map(|&(_, p)| p)
    }

    /// Compile `rules` (a conjunction, under `ops`' encodings) for this
    /// layout. Everything that does not depend on the tuple is decided
    /// here: the lane's offset and width, the operator, and whether the
    /// rule can pass at all.
    pub fn compile(&self, rules: &[FilterRule], ops: &OpTable) -> FilterProgram {
        let mut program = Vec::with_capacity(rules.len());
        for r in rules {
            // Out-of-range lane select: the hardware mux wraps; we model
            // the stricter behaviour of rejecting the tuple, whatever the
            // operator.
            let (Some(&(off, prim)), Some(callee)) =
                (self.lane_slots.get(r.lane as usize), ops.resolve(r.op_code))
            else {
                return FilterProgram { ops: vec![Op::Reject] };
            };
            match callee {
                Callee::Std(CmpOp::Nop) => {}
                Callee::Std(op) if !prim.is_float() => {
                    program.push(Op::Cmp(IntCmp::new(off, prim, op, r.value)));
                }
                f => program.push(Op::Call { off, prim, reference: r.value, f }),
            }
        }
        FilterProgram { ops: program }
    }

    /// Does `tuple` (packed input bytes) pass all `rules`? One-off form
    /// of [`Self::compile`] + [`FilterProgram::passes`]; a caller with
    /// more than one tuple keeps the program.
    pub fn tuple_passes(&self, tuple: &[u8], rules: &[FilterRule], ops: &OpTable) -> bool {
        self.compile(rules, ops).passes(tuple)
    }

    /// Transform one passing tuple, appending its output bytes to `out`.
    pub fn transform_into(&self, tuple: &[u8], out: &mut Vec<u8>) {
        match self.byte_moves[..] {
            // One move fills the whole output tuple (the identity and
            // every contiguous projection): nothing to zero-fill.
            [(src, 0, len)] if len == self.out_tuple_bytes => {
                out.extend_from_slice(&tuple[src..src + len]);
            }
            _ => {
                let start = out.len();
                out.resize(start + self.out_tuple_bytes, 0);
                for &(src, dst, len) in &self.byte_moves {
                    out[start + dst..start + dst + len].copy_from_slice(&tuple[src..src + len]);
                }
            }
        }
    }

    /// Process a whole block: filter every complete tuple, transform the
    /// survivors, append results to `out`. One-off form of
    /// [`Self::compile`] + [`Self::run_block`]; a caller with more than
    /// one block keeps the program.
    pub fn process_block(
        &self,
        input: &[u8],
        rules: &[FilterRule],
        ops: &OpTable,
        out: &mut Vec<u8>,
    ) -> OracleStats {
        self.run_block(&self.compile(rules, ops), input, out)
    }

    /// Run a compiled program over a whole block: filter every complete
    /// tuple, transform the survivors, append results to `out`.
    pub fn run_block(
        &self,
        program: &FilterProgram,
        input: &[u8],
        out: &mut Vec<u8>,
    ) -> OracleStats {
        let ts = self.in_tuple_bytes();
        let whole = input.len() / ts * ts;
        let tuples = &input[..whole];
        let tuples_out = match program.ops[..] {
            // The common job — one integer predicate — runs a loop
            // specialised on the lane width.
            [Op::Cmp(c)] => match c.width {
                1 => self.filter_into(tuples, out, |t| c.accepts(load::<1>(t, c.off))),
                2 => self.filter_into(tuples, out, |t| c.accepts(load::<2>(t, c.off))),
                4 => self.filter_into(tuples, out, |t| c.accepts(load::<4>(t, c.off))),
                _ => self.filter_into(tuples, out, |t| c.accepts(load::<8>(t, c.off))),
            },
            _ => self.filter_into(tuples, out, |t| program.passes(t)),
        };
        OracleStats {
            tuples_in: (whole / ts) as u32,
            tuples_out,
            bytes_out: (tuples_out as usize * self.out_tuple_bytes) as u32,
            trailing_bytes: (input.len() - whole) as u32,
        }
    }

    /// Transform every tuple of `tuples` that `pass` accepts into `out`;
    /// returns how many passed.
    #[inline(always)]
    fn filter_into(&self, tuples: &[u8], out: &mut Vec<u8>, pass: impl Fn(&[u8]) -> bool) -> u32 {
        let mut passed = 0;
        for tuple in tuples.chunks_exact(self.in_tuple_bytes()) {
            if pass(tuple) {
                passed += 1;
                self.transform_into(tuple, out);
            }
        }
        passed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndp_ir::{elaborate, elaborate_with_custom_ops};
    use ndp_spec::parse;

    const POINTS: &str = "
        /* @autogen define parser P with input = Point3D, output = Point2D,
           mapping = { output.x = input.y, output.y = input.z } */
        typedef struct { uint32_t x, y, z; } Point3D;
        typedef struct { uint32_t x, y; } Point2D;
    ";

    fn points_block(points: &[(u32, u32, u32)]) -> Vec<u8> {
        let mut v = Vec::new();
        for &(x, y, z) in points {
            v.extend_from_slice(&x.to_le_bytes());
            v.extend_from_slice(&y.to_le_bytes());
            v.extend_from_slice(&z.to_le_bytes());
        }
        v
    }

    #[test]
    fn filters_and_projects_points() {
        let cfg = elaborate(&parse(POINTS).unwrap(), "P").unwrap();
        let bp = BlockProcessor::new(&cfg);
        let ops = OpTable::from_config(&cfg);
        let input = points_block(&[(1, 10, 100), (2, 20, 200), (3, 30, 300)]);
        // Keep points with x >= 2 (lane 0).
        let rules = [FilterRule { lane: 0, op_code: cfg.op_code("ge").unwrap(), value: 2 }];
        let mut out = Vec::new();
        let stats = bp.process_block(&input, &rules, &ops, &mut out);
        assert_eq!(stats.tuples_in, 3);
        assert_eq!(stats.tuples_out, 2);
        assert_eq!(stats.bytes_out, 16);
        // Survivors projected to (y, z).
        assert_eq!(&out[0..4], &20u32.to_le_bytes());
        assert_eq!(&out[4..8], &200u32.to_le_bytes());
        assert_eq!(&out[8..12], &30u32.to_le_bytes());
    }

    #[test]
    fn nop_rules_pass_everything() {
        let cfg = elaborate(&parse(POINTS).unwrap(), "P").unwrap();
        let bp = BlockProcessor::new(&cfg);
        let ops = OpTable::from_config(&cfg);
        let input = points_block(&[(1, 2, 3), (4, 5, 6)]);
        let mut out = Vec::new();
        let stats = bp.process_block(&input, &[FilterRule::pass()], &ops, &mut out);
        assert_eq!(stats.tuples_out, 2);
    }

    #[test]
    fn multi_stage_rules_conjoin() {
        let cfg = elaborate(&parse(POINTS).unwrap(), "P").unwrap();
        let bp = BlockProcessor::new(&cfg);
        let ops = OpTable::from_config(&cfg);
        let input = points_block(&[(1, 10, 100), (5, 10, 100), (5, 99, 100)]);
        // x >= 2 AND y < 50 — a 2-stage RANGE-style predicate.
        let ge = cfg.op_code("ge").unwrap();
        let lt = cfg.op_code("lt").unwrap();
        let rules = [
            FilterRule { lane: 0, op_code: ge, value: 2 },
            FilterRule { lane: 1, op_code: lt, value: 50 },
        ];
        let mut out = Vec::new();
        let stats = bp.process_block(&input, &rules, &ops, &mut out);
        assert_eq!(stats.tuples_out, 1);
        assert_eq!(&out[0..4], &10u32.to_le_bytes());
    }

    #[test]
    fn trailing_partial_tuple_is_dropped_and_counted() {
        let cfg = elaborate(&parse(POINTS).unwrap(), "P").unwrap();
        let bp = BlockProcessor::new(&cfg);
        let ops = OpTable::from_config(&cfg);
        let mut input = points_block(&[(1, 2, 3)]);
        input.extend_from_slice(&[0xAA; 5]);
        let mut out = Vec::new();
        let stats = bp.process_block(&input, &[FilterRule::pass()], &ops, &mut out);
        assert_eq!(stats.tuples_in, 1);
        assert_eq!(stats.trailing_bytes, 5);
    }

    #[test]
    fn unknown_op_code_rejects_tuples() {
        let cfg = elaborate(&parse(POINTS).unwrap(), "P").unwrap();
        let bp = BlockProcessor::new(&cfg);
        let ops = OpTable::from_config(&cfg);
        let input = points_block(&[(1, 2, 3)]);
        let rules = [FilterRule { lane: 0, op_code: 99, value: 0 }];
        let mut out = Vec::new();
        let stats = bp.process_block(&input, &rules, &ops, &mut out);
        assert_eq!(stats.tuples_out, 0);
    }

    #[test]
    fn out_of_range_lane_rejects_tuples() {
        let cfg = elaborate(&parse(POINTS).unwrap(), "P").unwrap();
        let bp = BlockProcessor::new(&cfg);
        let ops = OpTable::from_config(&cfg);
        let input = points_block(&[(1, 2, 3)]);
        let rules = [FilterRule { lane: 7, op_code: cfg.op_code("eq").unwrap(), value: 1 }];
        let mut out = Vec::new();
        assert_eq!(bp.process_block(&input, &rules, &ops, &mut out).tuples_out, 0);
    }

    #[test]
    fn identity_transform_detects_projections() {
        // Point3D → Point2D drops a field: not the identity.
        let cfg = elaborate(&parse(POINTS).unwrap(), "P").unwrap();
        assert!(!BlockProcessor::new(&cfg).identity_transform());
        // A → A with the default mapping copies every byte in place.
        let id = "
            /* @autogen define parser I with input = A, output = A */
            typedef struct { uint32_t x, y; } A;
        ";
        let cfg = elaborate(&parse(id).unwrap(), "I").unwrap();
        assert!(BlockProcessor::new(&cfg).identity_transform());
    }

    #[test]
    fn op_symbols_render_per_configuration() {
        let cfg = elaborate(&parse(POINTS).unwrap(), "P").unwrap();
        let ops = OpTable::from_config(&cfg);
        assert_eq!(ops.symbol(cfg.op_code("nop").unwrap()), "nop");
        assert_eq!(ops.symbol(cfg.op_code("ge").unwrap()), ">=");
        assert_eq!(ops.symbol(cfg.op_code("eq").unwrap()), "==");
        assert_eq!(ops.symbol(999), "op#999");
    }

    #[test]
    fn custom_operator_binds_and_evaluates() {
        let src = "
            /* @autogen define parser F with input = A, output = A,
               operators = { eq, popcnt_ge } */
            typedef struct { uint32_t x; } A;
        ";
        let module = parse(src).unwrap();
        let cfg = elaborate_with_custom_ops(&module, "F", &["popcnt_ge"]).unwrap();
        let bp = BlockProcessor::new(&cfg);
        let mut ops = OpTable::from_config(&cfg);
        assert!(ops.bind_custom(&cfg, "popcnt_ge", |_, a, b| a.count_ones() >= b as u32));
        assert!(!ops.bind_custom(&cfg, "eq", |_, _, _| true), "standard ops are not rebindable");

        let code = cfg.op_code("popcnt_ge").unwrap();
        let mut input = Vec::new();
        input.extend_from_slice(&0b1011u32.to_le_bytes()); // popcount 3
        input.extend_from_slice(&0b0001u32.to_le_bytes()); // popcount 1
        let rules = [FilterRule { lane: 0, op_code: code, value: 2 }];
        let mut out = Vec::new();
        let stats = bp.process_block(&input, &rules, &ops, &mut out);
        assert_eq!(stats.tuples_out, 1);
        assert_eq!(&out[..], &0b1011u32.to_le_bytes());
    }

    #[test]
    fn unbound_custom_operator_rejects() {
        let src = "
            /* @autogen define parser F with input = A, output = A,
               operators = { eq, mystery } */
            typedef struct { uint32_t x; } A;
        ";
        let module = parse(src).unwrap();
        let cfg = elaborate_with_custom_ops(&module, "F", &["mystery"]).unwrap();
        let bp = BlockProcessor::new(&cfg);
        let ops = OpTable::from_config(&cfg); // never bound
        let code = cfg.op_code("mystery").unwrap();
        let input = 5u32.to_le_bytes().to_vec();
        let rules = [FilterRule { lane: 0, op_code: code, value: 0 }];
        let mut out = Vec::new();
        assert_eq!(bp.process_block(&input, &rules, &ops, &mut out).tuples_out, 0);
    }

    #[test]
    fn signed_fields_filter_with_signed_semantics() {
        let src = "
            /* @autogen define parser F with input = A, output = A */
            typedef struct { int32_t t; } A;
        ";
        let cfg = elaborate(&parse(src).unwrap(), "F").unwrap();
        let bp = BlockProcessor::new(&cfg);
        let ops = OpTable::from_config(&cfg);
        let mut input = Vec::new();
        input.extend_from_slice(&(-5i32).to_le_bytes());
        input.extend_from_slice(&(3i32).to_le_bytes());
        // t < 0
        let rules = [FilterRule { lane: 0, op_code: cfg.op_code("lt").unwrap(), value: 0 }];
        let mut out = Vec::new();
        let stats = bp.process_block(&input, &rules, &ops, &mut out);
        assert_eq!(stats.tuples_out, 1);
        assert_eq!(&out[..], &(-5i32).to_le_bytes());
    }

    // ------------------------------------------------------------------
    // The interpreter `FilterProgram` replaced, kept as the reference the
    // compiled path is checked against: per-rule slot and operator
    // lookup, byte-wise lane assembly, `CmpOp::eval` on the raw values,
    // and one copy per mapped field.

    /// `(offset, length, type)` per lane, straight from the layout.
    fn reference_lane_slots(cfg: &PeConfig) -> Vec<(usize, usize, PrimTy)> {
        let codec = LayoutCodec::new(&cfg.input);
        let mut slots = vec![(0usize, 0usize, PrimTy::U8); codec.lanes()];
        for idx in 0..cfg.input.fields.len() {
            if let Slot::Lane { lane, prim } = codec.slot(idx) {
                let (off, len) = codec.field_range(idx);
                slots[lane as usize] = (off, len, prim);
            }
        }
        slots
    }

    fn reference_eval(
        ops: &OpTable,
        code: u32,
        prim: PrimTy,
        element: u64,
        reference: u64,
    ) -> bool {
        if let Some(Some(op)) = ops.standard.get(code as usize) {
            return op.eval(prim, element, reference);
        }
        if let Some(f) = ops.custom.get(&code) {
            return f(prim, element, reference);
        }
        false
    }

    fn reference_passes(cfg: &PeConfig, tuple: &[u8], rules: &[FilterRule], ops: &OpTable) -> bool {
        let slots = reference_lane_slots(cfg);
        rules.iter().all(|r| {
            let Some(&(off, len, prim)) = slots.get(r.lane as usize) else {
                return false;
            };
            let mut v = 0u64;
            for (i, b) in tuple[off..off + len].iter().enumerate() {
                v |= u64::from(*b) << (8 * i);
            }
            reference_eval(ops, r.op_code, prim, v, r.value)
        })
    }

    fn reference_block(
        cfg: &PeConfig,
        input: &[u8],
        rules: &[FilterRule],
        ops: &OpTable,
        out: &mut Vec<u8>,
    ) -> OracleStats {
        let (in_codec, out_codec) = (LayoutCodec::new(&cfg.input), LayoutCodec::new(&cfg.output));
        let (ts, os) = (in_codec.tuple_bytes(), out_codec.tuple_bytes());
        let mut stats = OracleStats::default();
        let whole = input.len() / ts * ts;
        stats.trailing_bytes = (input.len() - whole) as u32;
        for tuple in input[..whole].chunks_exact(ts) {
            stats.tuples_in += 1;
            if reference_passes(cfg, tuple, rules, ops) {
                stats.tuples_out += 1;
                let start = out.len();
                out.resize(start + os, 0);
                for mv in &cfg.transform.moves {
                    let (src, len) = in_codec.field_range(mv.src);
                    let (dst, _) = out_codec.field_range(mv.dst);
                    out[start + dst..start + dst + len].copy_from_slice(&tuple[src..src + len]);
                }
            }
        }
        stats.bytes_out = (stats.tuples_out as usize * os) as u32;
        stats
    }

    /// Both forms of the compiled path against the reference: the whole
    /// block (stats and bytes) and every tuple on its own.
    fn assert_matches_reference(cfg: &PeConfig, ops: &OpTable, input: &[u8], rules: &[FilterRule]) {
        let bp = BlockProcessor::new(cfg);
        let (mut got, mut want) = (vec![0xEE], vec![0xEE]);
        let got_stats = bp.process_block(input, rules, ops, &mut got);
        let want_stats = reference_block(cfg, input, rules, ops, &mut want);
        assert_eq!(got_stats, want_stats, "{rules:?}");
        assert_eq!(got, want, "{rules:?}");
        let program = bp.compile(rules, ops);
        for tuple in input.chunks_exact(bp.in_tuple_bytes()) {
            let want = reference_passes(cfg, tuple, rules, ops);
            assert_eq!(program.passes(tuple), want, "{rules:?} on {tuple:?}");
            assert_eq!(bp.tuple_passes(tuple, rules, ops), want);
        }
    }

    const ALL_PRIMS: [PrimTy; 10] = [
        PrimTy::U8,
        PrimTy::U16,
        PrimTy::U32,
        PrimTy::U64,
        PrimTy::I8,
        PrimTy::I16,
        PrimTy::I32,
        PrimTy::I64,
        PrimTy::F32,
        PrimTy::F64,
    ];

    /// Operand bit patterns that sit on a comparison's edges for `prim`.
    fn boundary_operands(prim: PrimTy) -> Vec<u64> {
        let bits = prim.bits();
        let max = u64::MAX >> (64 - bits);
        let sign = 1u64 << (bits - 1);
        let mut v = vec![0, 1, 2, sign - 1, sign, sign + 1, max - 1, max];
        match prim {
            PrimTy::F32 => v.extend(
                [f32::NAN, -f32::NAN, 0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, 1.5, -1.5]
                    .map(|f| u64::from(f.to_bits())),
            ),
            PrimTy::F64 => v.extend(
                [f64::NAN, -f64::NAN, 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, 1.5, -1.5]
                    .map(f64::to_bits),
            ),
            _ => {}
        }
        v // 1 is also the smallest subnormal of both float types
    }

    #[test]
    fn program_agrees_with_cmpop_eval_on_every_operator_type_and_boundary() {
        for prim in ALL_PRIMS {
            let src = format!(
                "/* @autogen define parser F with input = A, output = A */
                 typedef struct {{ {prim} v; }} A;"
            );
            let cfg = elaborate(&parse(&src).unwrap(), "F").unwrap();
            let ops = OpTable::from_config(&cfg);
            let width = prim.bytes() as usize;
            let lanes = boundary_operands(prim);
            let mut block = Vec::new();
            for v in &lanes {
                block.extend_from_slice(&v.to_le_bytes()[..width]);
            }
            // References are the full 64-bit register: every lane value,
            // and the same with bits set above the lane's width — which
            // an unsigned compare must see (`u32 lane < 2^32 + 5` holds
            // for every tuple) and a signed or float compare must not.
            let mut references = lanes.clone();
            if width < 8 {
                references.extend(lanes.iter().map(|v| v | 1 << (8 * width)));
                references.extend(lanes.iter().map(|v| v | u64::MAX << (8 * width)));
            }
            for name in ["nop", "ne", "eq", "gt", "ge", "lt", "le"] {
                let op_code = cfg.op_code(name).unwrap();
                for &value in &references {
                    let rule = FilterRule { lane: 0, op_code, value };
                    assert_matches_reference(&cfg, &ops, &block, &[rule]);
                    // The same rule behind another takes the general loop.
                    assert_matches_reference(&cfg, &ops, &block, &[FilterRule::pass(), rule, rule]);
                }
            }
        }
    }

    #[test]
    fn degenerate_rules_are_decided_like_the_reference() {
        let src = "
            /* @autogen define parser F with input = A, output = A,
               operators = { eq, lt, popcnt_ge, mystery } */
            typedef struct { uint32_t x; int16_t y; } A;
        ";
        let module = parse(src).unwrap();
        let cfg = elaborate_with_custom_ops(&module, "F", &["popcnt_ge", "mystery"]).unwrap();
        let mut ops = OpTable::from_config(&cfg);
        assert!(ops.bind_custom(&cfg, "popcnt_ge", |_, a, b| a.count_ones() >= b as u32));
        let bp = BlockProcessor::new(&cfg);
        let mut block = Vec::new();
        for (x, y) in [(0u32, 0i16), (7, -1), (0b1011, 3), (u32::MAX, i16::MIN)] {
            block.extend_from_slice(&x.to_le_bytes());
            block.extend_from_slice(&y.to_le_bytes());
        }
        let code = |name| cfg.op_code(name).unwrap();
        let eq = FilterRule { lane: 0, op_code: code("eq"), value: 7 };
        let chains: [&[FilterRule]; 8] = [
            &[],
            &[FilterRule { lane: bp.lanes() as u32, op_code: code("eq"), value: 0 }],
            // `nop` on a lane that does not exist still rejects.
            &[FilterRule { lane: 9, op_code: code("nop"), value: 0 }],
            &[FilterRule { lane: 0, op_code: 99, value: 0 }],
            &[FilterRule { lane: 0, op_code: code("mystery"), value: 0 }],
            &[FilterRule { lane: 0, op_code: code("popcnt_ge"), value: 3 }],
            &[FilterRule { lane: 1, op_code: code("popcnt_ge"), value: 16 }, eq],
            // A passing rule in front of a degenerate one changes nothing.
            &[eq, FilterRule { lane: 0, op_code: code("mystery"), value: 0 }],
        ];
        for rules in chains {
            assert_matches_reference(&cfg, &ops, &block, rules);
        }
    }

    #[test]
    fn random_chains_over_random_blocks_match_the_reference() {
        let mut rng = ndp_workload::SplitMix64::new(0x0F11_7E12);
        // Fig. 8 tuple widths, every lane type plus a string prefix per
        // layout; the projection of `POINTS` exercises a real transform.
        let mut specs = vec![POINTS.replace(" P ", " F ")];
        for bits in [64u32, 128, 256, 512, 1024, 2048] {
            let mut fields = String::from("/* @string(prefix = 2) */ uint8_t s[4]; ");
            let mut left = bits / 8 - 4;
            for (i, prim) in ALL_PRIMS.iter().cycle().enumerate() {
                if left == 0 {
                    break;
                }
                let prim = if prim.bytes() <= left { *prim } else { PrimTy::U8 };
                fields += &format!("{prim} f{i}; ");
                left -= prim.bytes();
            }
            specs.push(format!(
                "/* @autogen define parser F with input = T, output = T */
                 typedef struct {{ {fields} }} T;"
            ));
        }
        for src in specs {
            let cfg = elaborate(&parse(&src).unwrap(), "F").unwrap();
            let ops = OpTable::from_config(&cfg);
            let bp = BlockProcessor::new(&cfg);
            let ts = bp.in_tuple_bytes();
            for _ in 0..24 {
                // A few whole tuples and a trailing partial one.
                let mut block = vec![0u8; ts * (1 + rng.gen_usize(40)) + rng.gen_usize(ts)];
                rng.fill_bytes(&mut block);
                let rules: Vec<FilterRule> = (0..rng.gen_usize(9))
                    .map(|_| {
                        // Mostly valid lanes and operators; references are
                        // a lane value from the block as often as not, so
                        // `eq` and the edges of `le`/`ge` are hit.
                        let lane = rng.gen_u32(bp.lanes() as u32 + 1);
                        let tuple = &block[ts * rng.gen_usize(block.len() / ts)..];
                        let value = match bp.lane_value(tuple, lane) {
                            Some(v) if rng.gen_bool(0.5) => v,
                            _ => rng.next_u64() >> rng.gen_u32(64),
                        };
                        FilterRule { lane, op_code: rng.gen_u32(8), value }
                    })
                    .collect();
                assert_matches_reference(&cfg, &ops, &block, &rules);
            }
        }
    }

    #[test]
    fn transform_moves_coalesce_across_contiguous_fields() {
        // Identity over twelve fields: one copy per survivor.
        let cfg = elaborate(
            &parse(
                "/* @autogen define parser W with input = T, output = T */
                 typedef struct { uint64_t a, b, c, d, e, f, g, h; uint64_t i, j, k, l; } T;",
            )
            .unwrap(),
            "W",
        )
        .unwrap();
        assert_eq!(BlockProcessor::new(&cfg).byte_moves, [(0, 0, 96)]);
        // (y, z) -> (x, y): contiguous on both sides, still one copy.
        let cfg = elaborate(&parse(POINTS).unwrap(), "P").unwrap();
        assert_eq!(BlockProcessor::new(&cfg).byte_moves, [(4, 0, 8)]);
        // A swap is contiguous on neither side.
        let cfg = elaborate(
            &parse(
                "/* @autogen define parser S with input = A, output = A,
                    mapping = { output.x = input.y, output.y = input.x } */
                 typedef struct { uint32_t x, y; } A;",
            )
            .unwrap(),
            "S",
        )
        .unwrap();
        assert_eq!(BlockProcessor::new(&cfg).byte_moves, [(4, 0, 4), (0, 4, 4)]);
    }
}
