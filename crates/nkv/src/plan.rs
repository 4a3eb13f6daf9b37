//! Query planning: logical ops lowered into physical execution plans.
//!
//! The paper's PEs are "1..N filtering units" deployed per table, and
//! nKV dispatches every GET/SCAN either to the ARM software path or to
//! a hardware PE. This module makes that decision *explicit* and
//! *inspectable*: a [`LogicalOp`] describes what the host asked for, a
//! [`PhysicalPlan`] describes how the device will run it — which
//! predicates are pushed into PE register programming, which remain as
//! a software post-filter, and how many PE job streams a scan fans out
//! to — and [`PhysicalPlan::explain`] renders the plan for debugging.
//!
//! Lowering rules (see DESIGN.md §11):
//!
//! * every predicate lane must exist in the table's input layout;
//! * operator encodings are per-PE (declaration order of the table's
//!   specification), so the rules the store builds itself — GET's key
//!   equality, RANGE_SCAN's `ge`/`lt` chain — take their codes from
//!   [`PlanCaps`]; an operator the table's set omits is a typed
//!   [`NkvError::Config`], never a silently wrong comparison;
//! * a hardware or hybrid GET or MULTI-GET programs `lane0 == key`, so
//!   it also needs lane 0 to be the record key (`PlanCaps::key_lane`),
//!   and it answers with the tuple the PE stores, so it needs the PE's
//!   transformation to be the identity (`PlanCaps::identity_transform`);
//! * **software** plans evaluate the whole chain on the ARM;
//! * **hardware** plans push the whole chain into the PE's filtering
//!   stages and reject chains longer than the stage count;
//! * **hybrid** plans push the first `stages` predicates and keep the
//!   rest as a residual ARM post-filter over the PE's output — only
//!   legal when the PE's transformation is the identity (otherwise the
//!   residual lanes no longer exist in the output tuples);
//! * aggregates stay register-resident on the PE, so a hybrid
//!   aggregate with a residual is rejected (there is no output stream
//!   to post-filter);
//! * a filter scan on a hardware-capable backend fans out to the
//!   table's configured `parallel_pes` job streams (0 = the legacy
//!   serial dispatch).

use crate::error::{NkvError, NkvResult};
use crate::exec::SimReport;
use ndp_pe::oracle::{FilterRule, OpTable};

/// What the host asked for, before any execution decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogicalOp {
    /// Point lookup by key.
    Get { key: u64 },
    /// Batched point lookup: N keys served by one PE configuration via
    /// a key-list DMA descriptor (see `cosmos_sim::batch`).
    MultiGet { keys: Vec<u64> },
    /// Full scan with a conjunctive predicate chain.
    Scan { rules: Vec<FilterRule> },
    /// Key-range scan: `lo <= key < hi`.
    RangeScan { lo: u64, hi: u64 },
    /// Aggregate pushdown: reduce `lane` over records matching `rules`.
    ScanAggregate { rules: Vec<FilterRule>, agg: ndp_ir::AggOp, lane: u32 },
}

/// Which execution path carries the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// ARM software NDP (the paper's "SW" bars).
    Software,
    /// FPGA PEs through the generated interface (the "HW" bars).
    Hardware,
    /// PE filtering for the first `stages` predicates, ARM post-filter
    /// for the rest.
    Hybrid,
}

impl Backend {
    /// Stable display name (EXPLAIN's plan header and tier line).
    pub(crate) fn name(self) -> &'static str {
        match self {
            Backend::Software => "software",
            Backend::Hardware => "hardware",
            Backend::Hybrid => "hybrid",
        }
    }
}

/// Which tier runs an operation: one the caller forces, or the one the
/// tier rule picks from the op and the table's capabilities
/// (`NkvDb::choose_backend`). A [`Backend`] converts into its forced
/// tier, so `execute(table, &op, Backend::Hardware)` reads as before.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Run on this backend.
    Forced(Backend),
    /// Run on the tier rule's pick: a GET or MULTI-GET on Software, any
    /// other op on the first of Hardware, Hybrid and Software that
    /// lowers (DESIGN.md §16).
    Adaptive,
}

/// The tier rule [`Tier::Adaptive`] runs, from the paper's Fig. 7: a
/// point lookup gains nothing from the PE (7a), so a GET or MULTI-GET
/// runs on Software; a flash-bound scan gains on it (7b), so any other
/// op runs on the first of Hardware, Hybrid and Software that lowers. An
/// op that lowers nowhere returns Software's lowering error.
pub(crate) fn tier_rule(op: &LogicalOp, caps: &PlanCaps, table: &str) -> NkvResult<Backend> {
    let offload: &[Backend] = match op {
        LogicalOp::Get { .. } | LogicalOp::MultiGet { .. } => &[],
        _ => &[Backend::Hardware, Backend::Hybrid],
    };
    match offload.iter().find(|&&b| PhysicalPlan::lower(op, b, caps, table).is_ok()) {
        Some(&backend) => Ok(backend),
        None => PhysicalPlan::lower(op, Backend::Software, caps, table).map(|_| Backend::Software),
    }
}

/// The line EXPLAIN appends on [`Tier::Adaptive`]: the tier
/// [`tier_rule`] picked for `op` and why.
pub(crate) fn tier_rule_line(op: &LogicalOp, backend: Backend) -> String {
    let why = match (op, backend) {
        (LogicalOp::Get { .. } | LogicalOp::MultiGet { .. }, _) => "lookups run on the ARM",
        (_, Backend::Hardware) => "the PE takes the whole op",
        (_, Backend::Hybrid) => "the PE takes what its stages hold, the ARM the rest",
        (_, Backend::Software) => "no PE tier lowers this op",
    };
    format!("  tier: {} (rule: {why})\n", backend.name())
}

impl From<Backend> for Tier {
    fn from(backend: Backend) -> Tier {
        Tier::Forced(backend)
    }
}

/// What a table's executor can do — the planner's view of the device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PlanCaps {
    /// Chained filtering stages per PE.
    pub stages: u32,
    /// Lanes of the input tuple layout.
    pub lanes: usize,
    /// PEs attached to the table.
    pub n_pes: usize,
    /// Configured parallel scan streams (0 = serial legacy dispatch).
    pub parallel_pes: usize,
    /// Aggregation reductions the PEs were generated with.
    pub aggregates: Vec<ndp_ir::AggOp>,
    /// Whether the PE's transformation is the identity (output tuples
    /// are byte-for-byte the input tuples). Gates hybrid residuals.
    pub(crate) identity_transform: bool,
    /// Whether lane 0 is an 8-byte integer lane at offset 0, that is,
    /// the record key: only then does a GET's `lane0 == key` PE job pass
    /// exactly the records whose key is `key`.
    pub(crate) key_lane: bool,
    /// The table's own encodings of `eq`/`ge`/`lt` (`None` when its
    /// operator set omits the operator; see `TableExec::eq_code`).
    pub(crate) eq_code: Option<u32>,
    pub(crate) ge_code: Option<u32>,
    pub(crate) lt_code: Option<u32>,
}

/// The physical operator at the root of a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PhysOp {
    /// Memtable probe, then bloom-pruned index walk + one block search.
    PointLookup { key: u64 },
    /// One key-list descriptor DMA, one PE configuration, N streamed
    /// point lookups. Keys are validated against the descriptor's
    /// shape rules (non-empty, ≤ capacity, no duplicates) at lowering.
    BatchedGet { keys: Vec<u64> },
    /// Filter every data block, reconcile versions, return records.
    FilterScan,
    /// A `FilterScan` whose reconciled survivors fold into one
    /// accumulator (register-resident on the PE for blocks no newer
    /// component can shadow).
    AggregateScan { agg: ndp_ir::AggOp, lane: u32 },
}

/// A lowered, executable plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhysicalPlan {
    pub op: PhysOp,
    pub(crate) backend: Backend,
    /// Predicates pushed into PE register programming (for a software
    /// backend: the chain the ARM walk evaluates).
    pub(crate) pushed: Vec<FilterRule>,
    /// Predicates evaluated by the ARM over the PE's output stream.
    pub(crate) residual: Vec<FilterRule>,
    /// Parallel PE job streams a filter scan fans out to (0 = serial).
    pub parallel_pes: usize,
}

impl PhysicalPlan {
    /// Lower `op` for a table with capabilities `caps` — the one place
    /// a query is validated, whichever entry point it came through.
    pub(crate) fn lower(
        op: &LogicalOp,
        backend: Backend,
        caps: &PlanCaps,
        table: &str,
    ) -> NkvResult<PhysicalPlan> {
        // The PE finds a key with a `lane0 == key` filter, which needs
        // `eq` and lane 0 to be the key, and answers with the tuple it
        // stores, which is the record only under an identity transform;
        // the ARM's block search needs none of the three.
        let key_lookup = |op: PhysOp| -> NkvResult<PhysicalPlan> {
            if backend != Backend::Software {
                required_op(caps.eq_code, "eq", "a hardware GET", table)?;
                if !caps.key_lane {
                    return Err(NkvError::Config(format!(
                        "a hardware GET on `{table}` programs `lane0 == key`, but lane 0 of \
                         the table's input layout is not its key (an 8-byte integer at offset 0)"
                    )));
                }
                if !caps.identity_transform {
                    return Err(NkvError::Config(format!(
                        "a hardware GET on `{table}` answers with the tuple the PE stores, but \
                         the PE's transformation is not the identity, so that tuple is not the \
                         record"
                    )));
                }
            }
            Ok(PhysicalPlan {
                op,
                backend,
                pushed: Vec::new(),
                residual: Vec::new(),
                parallel_pes: 0,
            })
        };
        match op {
            LogicalOp::Get { key } => key_lookup(PhysOp::PointLookup { key: *key }),
            LogicalOp::MultiGet { keys } => {
                // A batch of one folds to the plain point lookup, so
                // every serial timing/result stays byte-identical.
                if let [key] = keys[..] {
                    return key_lookup(PhysOp::PointLookup { key });
                }
                // Validate batch shape through the descriptor itself:
                // the planner rejects exactly what the device would.
                cosmos_sim::KeyListDescriptor::new(keys)
                    .map_err(|e| NkvError::Config(format!("batched GET on `{table}`: {e}")))?;
                key_lookup(PhysOp::BatchedGet { keys: keys.clone() })
            }
            LogicalOp::Scan { rules } => Self::lower_scan(rules, backend, caps, table),
            LogicalOp::RangeScan { lo, hi } => {
                // The paper's 2-stage showcase: `lo <= key < hi` on lane
                // 0. The ARM oracle evaluates the same encodings, so a
                // missing operator fails every backend alike.
                let ge = required_op(caps.ge_code, "ge", "RANGE_SCAN", table)?;
                let lt = required_op(caps.lt_code, "lt", "RANGE_SCAN", table)?;
                let rules = [
                    FilterRule { lane: 0, op_code: ge, value: *lo },
                    FilterRule { lane: 0, op_code: lt, value: *hi },
                ];
                Self::lower_scan(&rules, backend, caps, table)
            }
            LogicalOp::ScanAggregate { rules, agg, lane } => {
                check_lanes(rules.iter().map(|r| r.lane).chain([*lane]), caps, table)?;
                if backend != Backend::Software && !caps.aggregates.contains(agg) {
                    return Err(NkvError::Config(format!(
                        "table `{table}`'s PEs were not generated with the `{}` aggregate",
                        agg.name()
                    )));
                }
                if backend != Backend::Software && rules.len() > caps.stages as usize {
                    // The reduction lives in a PE register; there is no
                    // output stream a residual could post-filter.
                    return Err(NkvError::Config(format!(
                        "predicate chain of {} rules exceeds the PE's {} filtering stage(s) \
                         and an aggregate has no output stream for a residual filter",
                        rules.len(),
                        caps.stages
                    )));
                }
                Ok(PhysicalPlan {
                    op: PhysOp::AggregateScan { agg: *agg, lane: *lane },
                    backend,
                    pushed: rules.clone(),
                    residual: Vec::new(),
                    parallel_pes: 0,
                })
            }
        }
    }

    fn lower_scan(
        rules: &[FilterRule],
        backend: Backend,
        caps: &PlanCaps,
        table: &str,
    ) -> NkvResult<PhysicalPlan> {
        check_lanes(rules.iter().map(|r| r.lane), caps, table)?;
        let stages = caps.stages as usize;
        let (pushed, residual) = match backend {
            Backend::Software => (rules.to_vec(), Vec::new()),
            Backend::Hardware => {
                if rules.len() > stages {
                    return Err(NkvError::Config(format!(
                        "predicate chain of {} rules exceeds the PE's {} filtering stage(s)",
                        rules.len(),
                        caps.stages
                    )));
                }
                (rules.to_vec(), Vec::new())
            }
            Backend::Hybrid => {
                let cut = rules.len().min(stages);
                let (push, rest) = rules.split_at(cut);
                if !rest.is_empty() && !caps.identity_transform {
                    return Err(NkvError::Config(format!(
                        "hybrid plan needs {} residual predicate(s) but the PE's \
                         transformation is not the identity, so the residual lanes \
                         do not exist in the output tuples",
                        rest.len()
                    )));
                }
                (push.to_vec(), rest.to_vec())
            }
        };
        let parallel = if backend == Backend::Software { 0 } else { caps.parallel_pes };
        Ok(PhysicalPlan {
            op: PhysOp::FilterScan,
            backend,
            pushed,
            residual,
            parallel_pes: parallel,
        })
    }

    /// Render the plan for debugging (`repro explain`). `ops` supplies
    /// the table's operator encodings (they are per-PE-config, not
    /// global), so predicates print as `lane1 >= 2015`.
    pub(crate) fn explain(&self, table: &str, ops: &OpTable) -> String {
        let mut s = String::new();
        let rule = |r: &FilterRule| format!("lane{} {} {}", r.lane, ops.symbol(r.op_code), r.value);
        // The primary path's chain, shared by both scan renderings.
        let pushed_chain = |s: &mut String| {
            if self.backend == Backend::Software {
                s.push_str("  ARM filter pass:\n");
            } else {
                s.push_str("  pushed -> PE filtering stages:\n");
            }
            for (i, r) in self.pushed.iter().enumerate() {
                s.push_str(&format!("    [{i}] {}\n", rule(r)));
            }
            if self.pushed.is_empty() {
                s.push_str("    (none: every tuple passes)\n");
            }
        };
        match &self.op {
            PhysOp::PointLookup { key } => {
                s.push_str(&format!("PLAN GET ON {table} (backend: {})\n", self.backend.name()));
                s.push_str("  memtable probe -> bloom-pruned index walk -> one block search\n");
                match self.backend {
                    Backend::Software => {
                        s.push_str(&format!("  ARM block search: key == {key}\n"));
                    }
                    _ => {
                        s.push_str(&format!("  pushed -> PE 0 stage: lane0 == {key}\n"));
                    }
                }
            }
            PhysOp::BatchedGet { keys } => {
                s.push_str(&format!(
                    "PLAN BATCHED-GET ON {table} (backend: {}, batch: {})\n",
                    self.backend.name(),
                    keys.len()
                ));
                s.push_str(
                    "  one key-list descriptor DMA -> shared index walk -> per-key block search\n",
                );
                match self.backend {
                    Backend::Software => {
                        s.push_str("  ARM block search per key (no PE configuration at all)\n");
                    }
                    _ => {
                        s.push_str(
                            "  pushed -> PE 0, configured once; key-list walker re-points \
                             lane0 == key per entry\n",
                        );
                    }
                }
                s.push_str("  then: per-key result stream over NVMe, in key order\n");
            }
            PhysOp::FilterScan => {
                s.push_str(&format!("PLAN SCAN ON {table} (backend: {})\n", self.backend.name()));
                pushed_chain(&mut s);
                if !self.residual.is_empty() {
                    s.push_str("  residual -> ARM post-filter over PE output:\n");
                    for (i, r) in self.residual.iter().enumerate() {
                        s.push_str(&format!("    [{}] {}\n", i + self.pushed.len(), rule(r)));
                    }
                }
                match self.parallel_pes {
                    0 => s.push_str("  dispatch: serial block stream (legacy)\n"),
                    n => s.push_str(&format!(
                        "  dispatch: {n} parallel PE job stream(s) over flash-channel groups, \
                         merged in (component, block) order\n"
                    )),
                }
                s.push_str("  then: version reconciliation + NVMe result transfer\n");
            }
            PhysOp::AggregateScan { agg, lane } => {
                s.push_str(&format!(
                    "PLAN SCAN-AGGREGATE ON {table} (backend: {})\n",
                    self.backend.name()
                ));
                s.push_str(&format!("  reduce: {}(lane{lane})\n", agg.name()));
                pushed_chain(&mut s);
                s.push_str("  then: version reconciliation + 8-byte accumulator over NVMe\n");
            }
        }
        s
    }
}

/// Every lane in `lanes` exists in the table's input layout, or the
/// first that does not is [`NkvError::InvalidLane`].
fn check_lanes(
    mut lanes: impl Iterator<Item = u32>,
    caps: &PlanCaps,
    table: &str,
) -> NkvResult<()> {
    match lanes.find(|&lane| lane as usize >= caps.lanes) {
        Some(lane) => Err(NkvError::InvalidLane { table: table.to_string(), lane }),
        None => Ok(()),
    }
}

/// The table's encoding of operator `name`, or the typed error for a
/// `what` that cannot run without it.
fn required_op(code: Option<u32>, name: &str, what: &str, table: &str) -> NkvResult<u32> {
    code.ok_or_else(|| {
        NkvError::Config(format!(
            "{what} on `{table}` needs the `{name}` operator, which the table's PEs \
             were not generated with"
        ))
    })
}

/// What executing a plan produced (see `NkvDb::execute`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanOutcome {
    /// A filter scan's reconciled records.
    Records { records: Vec<u8>, count: u64, report: SimReport },
    /// An aggregate scan's accumulator (`any` = matched at least once).
    Aggregate { value: u64, any: bool, report: SimReport },
    /// A point lookup's record, if found.
    Point { record: Option<Vec<u8>>, report: SimReport },
    /// A batched lookup's per-key outcomes, in key-list order. Each
    /// slot is independently attributed: a fault on one key's walk
    /// surfaces as that slot's typed error while the rest of the batch
    /// completes.
    Batch { results: Vec<NkvResult<Option<Vec<u8>>>>, report: SimReport },
}

impl PlanOutcome {
    /// The simulation report, whatever shape the outcome took.
    pub fn report(&self) -> &SimReport {
        match self {
            PlanOutcome::Records { report, .. }
            | PlanOutcome::Aggregate { report, .. }
            | PlanOutcome::Point { report, .. }
            | PlanOutcome::Batch { report, .. } => report,
        }
    }

    // The typed views of an outcome. An executed op's outcome always
    // has the shape of its `LogicalOp`, so each error arm means the
    // caller unwrapped the wrong shape or the dispatch itself is broken.

    /// A GET's record and report.
    pub(crate) fn into_point(self) -> NkvResult<(Option<Vec<u8>>, SimReport)> {
        match self {
            PlanOutcome::Point { record, report } => Ok((record, report)),
            other => Err(other.wrong_shape("point lookup")),
        }
    }

    /// A batched GET's per-key outcomes, in key order, and its report.
    /// A single-key batch lowers to the plain point lookup; it reads
    /// back as a batch of one.
    pub fn into_batch(self) -> NkvResult<(crate::db::MultiGetResults, SimReport)> {
        match self {
            PlanOutcome::Batch { results, report } => Ok((results, report)),
            PlanOutcome::Point { record, report } => Ok((vec![Ok(record)], report)),
            other => Err(other.wrong_shape("batched lookup")),
        }
    }

    /// A SCAN's or RANGE_SCAN's records, count and report.
    pub fn into_scan(self) -> NkvResult<crate::db::ScanSummary> {
        match self {
            PlanOutcome::Records { records, count, report } => {
                Ok(crate::db::ScanSummary { records, count, report })
            }
            other => Err(other.wrong_shape("filter scan")),
        }
    }

    /// An aggregate's `(value, any_rows, report)`.
    pub(crate) fn into_aggregate(self) -> NkvResult<(u64, bool, SimReport)> {
        match self {
            PlanOutcome::Aggregate { value, any, report } => Ok((value, any, report)),
            other => Err(other.wrong_shape("aggregate scan")),
        }
    }

    fn wrong_shape(&self, wanted: &str) -> NkvError {
        let got = match self {
            PlanOutcome::Records { .. } => "records",
            PlanOutcome::Aggregate { .. } => "an aggregate",
            PlanOutcome::Point { .. } => "a point",
            PlanOutcome::Batch { .. } => "a batch",
        };
        NkvError::Config(format!("{wanted} produced {got} outcome"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn caps(stages: u32, identity: bool, parallel: usize) -> PlanCaps {
        PlanCaps {
            stages,
            lanes: 3,
            n_pes: 4,
            parallel_pes: parallel,
            aggregates: vec![ndp_ir::AggOp::Sum],
            identity_transform: identity,
            key_lane: true,
            // The standard set's encodings.
            eq_code: Some(2),
            ge_code: Some(4),
            lt_code: Some(5),
        }
    }

    fn rule(lane: u32, op_code: u32, value: u64) -> FilterRule {
        FilterRule { lane, op_code, value }
    }

    #[test]
    fn hardware_rejects_overlong_chains_hybrid_splits_them() {
        let c = caps(1, true, 0);
        let op = LogicalOp::Scan { rules: vec![rule(0, 4, 10), rule(0, 5, 20)] };
        let hw = PhysicalPlan::lower(&op, Backend::Hardware, &c, "t");
        assert!(matches!(hw, Err(NkvError::Config(_))));
        let hy = PhysicalPlan::lower(&op, Backend::Hybrid, &c, "t").unwrap();
        assert_eq!(hy.pushed.len(), 1);
        assert_eq!(hy.residual.len(), 1);
    }

    #[test]
    fn hybrid_residual_requires_identity_transform() {
        let c = caps(1, false, 0);
        let op = LogicalOp::Scan { rules: vec![rule(0, 4, 10), rule(1, 5, 20)] };
        assert!(matches!(
            PhysicalPlan::lower(&op, Backend::Hybrid, &c, "t"),
            Err(NkvError::Config(_))
        ));
        // A chain that fits the stages needs no residual and is fine.
        let op1 = LogicalOp::Scan { rules: vec![rule(0, 4, 10)] };
        let p = PhysicalPlan::lower(&op1, Backend::Hybrid, &c, "t").unwrap();
        assert!(p.residual.is_empty());
    }

    #[test]
    fn lane_validation_matches_legacy() {
        let c = caps(2, true, 0);
        let op = LogicalOp::Scan { rules: vec![rule(7, 4, 10)] };
        assert!(matches!(
            PhysicalPlan::lower(&op, Backend::Software, &c, "t"),
            Err(NkvError::InvalidLane { lane: 7, .. })
        ));
    }

    #[test]
    fn parallel_streams_only_apply_to_hardware_filter_scans() {
        let c = caps(2, true, 4);
        let op = LogicalOp::Scan { rules: vec![rule(0, 4, 10)] };
        let sw = PhysicalPlan::lower(&op, Backend::Software, &c, "t").unwrap();
        assert_eq!(sw.parallel_pes, 0);
        let hw = PhysicalPlan::lower(&op, Backend::Hardware, &c, "t").unwrap();
        assert_eq!(hw.parallel_pes, 4);
        let agg = LogicalOp::ScanAggregate {
            rules: vec![rule(0, 4, 10)],
            agg: ndp_ir::AggOp::Sum,
            lane: 1,
        };
        let ap = PhysicalPlan::lower(&agg, Backend::Hardware, &c, "t").unwrap();
        assert_eq!(ap.parallel_pes, 0);
    }

    #[test]
    fn aggregate_capability_and_stage_checks() {
        let c = caps(1, true, 0);
        let bad_agg = LogicalOp::ScanAggregate { rules: vec![], agg: ndp_ir::AggOp::Max, lane: 1 };
        assert!(matches!(
            PhysicalPlan::lower(&bad_agg, Backend::Hardware, &c, "t"),
            Err(NkvError::Config(_))
        ));
        // Software has no capability requirement.
        assert!(PhysicalPlan::lower(&bad_agg, Backend::Software, &c, "t").is_ok());
        let long = LogicalOp::ScanAggregate {
            rules: vec![rule(0, 4, 1), rule(1, 5, 2)],
            agg: ndp_ir::AggOp::Sum,
            lane: 1,
        };
        assert!(matches!(
            PhysicalPlan::lower(&long, Backend::Hybrid, &c, "t"),
            Err(NkvError::Config(_))
        ));
    }

    #[test]
    fn multi_get_lowers_to_batched_get_and_folds_singletons() {
        let c = caps(1, true, 0);
        let p = PhysicalPlan::lower(
            &LogicalOp::MultiGet { keys: vec![5, 9, 1] },
            Backend::Hardware,
            &c,
            "t",
        )
        .unwrap();
        assert_eq!(p.op, PhysOp::BatchedGet { keys: vec![5, 9, 1] });
        // Batch of one is the plain point lookup, bit for bit.
        let one =
            PhysicalPlan::lower(&LogicalOp::MultiGet { keys: vec![5] }, Backend::Hardware, &c, "t")
                .unwrap();
        let get =
            PhysicalPlan::lower(&LogicalOp::Get { key: 5 }, Backend::Hardware, &c, "t").unwrap();
        assert_eq!(one, get);
    }

    #[test]
    fn multi_get_rejects_descriptor_shape_violations_as_config_errors() {
        let c = caps(1, true, 0);
        for keys in [vec![], vec![3, 4, 3], (0..600).collect::<Vec<u64>>()] {
            let err =
                PhysicalPlan::lower(&LogicalOp::MultiGet { keys }, Backend::Hardware, &c, "t")
                    .unwrap_err();
            assert!(matches!(err, NkvError::Config(_)), "{err:?}");
        }
    }

    #[test]
    fn range_scan_lowers_to_a_two_stage_key_chain() {
        let c = caps(2, true, 0);
        let p = PhysicalPlan::lower(
            &LogicalOp::RangeScan { lo: 100, hi: 200 },
            Backend::Hardware,
            &c,
            "t",
        )
        .unwrap();
        assert_eq!(p.pushed, [rule(0, 4, 100), rule(0, 5, 200)]);
        // Encodings are the table's own: `operators = { lt, ge, eq }`
        // numbers them 1, 2, 3.
        let reordered =
            PlanCaps { lt_code: Some(1), ge_code: Some(2), eq_code: Some(3), ..caps(2, true, 0) };
        let p = PhysicalPlan::lower(
            &LogicalOp::RangeScan { lo: 100, hi: 200 },
            Backend::Software,
            &reordered,
            "t",
        )
        .unwrap();
        assert_eq!(p.pushed, [rule(0, 2, 100), rule(0, 1, 200)]);
    }

    /// The tier rule on every `LogicalOp` variant, under capabilities
    /// where Hardware lowers, where only Hybrid lowers the longer chains,
    /// and where the PE transforms its tuples and has no aggregation
    /// unit, so only Software lowers the lookups, the longer chains and
    /// the aggregate.
    #[test]
    fn tier_rule_runs_lookups_on_the_arm_and_the_rest_on_the_first_tier_that_lowers() {
        use Backend::{Hardware as Hw, Hybrid as Hy, Software as Sw};
        let count = |n| LogicalOp::ScanAggregate {
            rules: vec![rule(1, 4, 1); n],
            agg: ndp_ir::AggOp::Count,
            lane: 1,
        };
        let ops = [
            LogicalOp::Get { key: 5 },
            LogicalOp::MultiGet { keys: vec![5, 9, 1] },
            LogicalOp::Scan { rules: vec![rule(1, 4, 10)] },
            LogicalOp::Scan { rules: vec![rule(1, 4, 10), rule(2, 5, 20)] },
            LogicalOp::RangeScan { lo: 10, hi: 20 },
            count(1),
            count(2),
        ];
        let with_count = |mut c: PlanCaps| {
            c.aggregates.push(ndp_ir::AggOp::Count);
            c
        };
        let transforming = PlanCaps { aggregates: vec![], ..caps(1, false, 0) };
        for (c, want) in [
            (with_count(caps(2, true, 0)), [Sw, Sw, Hw, Hw, Hw, Hw, Hw]),
            (with_count(caps(1, true, 0)), [Sw, Sw, Hw, Hy, Hy, Hw, Sw]),
            (transforming, [Sw, Sw, Hw, Sw, Sw, Sw, Sw]),
        ] {
            let identity = c.identity_transform;
            for (op, want) in ops.iter().zip(want) {
                assert_eq!(tier_rule(op, &c, "t").unwrap(), want, "{op:?} under {c:?}");
                let lowers = |b| PhysicalPlan::lower(op, b, &c, "t").is_ok();
                assert!(lowers(want), "{op:?}");
                if matches!(op, LogicalOp::Get { .. } | LogicalOp::MultiGet { .. }) {
                    // The PE could take a lookup wherever the transform is
                    // the identity; the rule keeps it on the ARM anyway.
                    assert_eq!(lowers(Hw), identity, "{op:?}");
                } else {
                    // Every tier the rule passed over does not lower.
                    let mut passed = [Hw, Hy].into_iter().take_while(|&b| b != want);
                    assert!(passed.all(|b| !lowers(b)), "{op:?}");
                }
            }
        }
    }

    #[test]
    fn tier_rule_returns_softwares_lowering_error_when_nothing_lowers() {
        let c = caps(2, true, 4);
        let no_ge = PlanCaps { ge_code: None, ..caps(2, true, 4) };
        for (op, c) in [
            (LogicalOp::Scan { rules: vec![rule(7, 4, 10)] }, &c),
            (LogicalOp::MultiGet { keys: vec![3, 4, 3] }, &c),
            (LogicalOp::RangeScan { lo: 10, hi: 20 }, &no_ge),
        ] {
            let want = PhysicalPlan::lower(&op, Backend::Software, c, "t").unwrap_err();
            assert_eq!(tier_rule(&op, c, "t").unwrap_err(), want, "{op:?}");
        }
    }
}
