//! Cost-based adaptive tier selection (DESIGN.md §16).
//!
//! The planner's three execution tiers — Software (ARM cores), Hardware
//! (generated PEs) and Hybrid (pushdown prefix + ARM residual) — all
//! return byte-identical results; they differ only in simulated time.
//! This module prices a logical operation on each tier *before* running
//! it, using the timing constants and register counts the DES charges
//! afterwards ([`cosmos_sim::timing`], [`ndp_swgen::job_io`]), so
//! [`crate::db::NkvDb::choose_backend`] can pick the cheapest feasible
//! tier per query.
//!
//! The model is deliberately first-order: per-op firmware tax, per-block
//! PE configuration tax, flash streaming bandwidth discounted by the
//! DRAM-cache hit rate, and ARM per-byte filter cost. Two mechanisms
//! keep it honest without sacrificing determinism:
//!
//! * **Promotion (JIT-style tiering).** The first [`PROMOTE_AFTER`]
//!   sightings of an op class use a *cold* hardware estimate that
//!   charges un-overlapped flash page reads per block, so one-off and
//!   tiny queries stay on the ARM path. Once the class is hot, the warm
//!   (pipelined) estimate applies and flash-heavy scans flip SW → HW.
//! * **Feedback.** Observed per-(class, tier) latencies fold into an
//!   EWMA that is blended 50/50 with the analytic estimate, so a tier
//!   that consistently under- or over-performs its model is re-costed.
//!
//! Both mechanisms are functions of the op sequence alone — no wall
//! clock, no randomness — so a fixed seed still yields a fixed trace.

use crate::plan::{Backend, LogicalOp};
use cosmos_sim::timing::{
    cfg_overhead_ns, ARM_BLOCK_SEARCH_NS, ARM_FILTER_PS_PER_BYTE, ARM_MEMTABLE_PROBE_NS,
    ARM_SW_BLOCK_OVERHEAD_NS, FIRMWARE_OP_OVERHEAD_NS, FLASH_AGGREGATE_BW, FLASH_PAGE_BYTES,
    FLASH_PAGE_READ_NS, PL_CLK_NS,
};
use ndp_swgen::{job_io, DriverProfile, PeInvoke};

/// Sightings of an op class before its hardware estimate switches from
/// the cold (un-overlapped flash) model to the warm (pipelined) model.
pub const PROMOTE_AFTER: u64 = 3;

/// Weight of a new observation when folding into the per-tier EWMA.
const EWMA_ALPHA: f64 = 0.3;

/// Blend between the analytic estimate and the observed EWMA once at
/// least one observation exists for a (class, tier) pair.
const FEEDBACK_BLEND: f64 = 0.5;

/// Coarse shape classes the adaptive planner keys its feedback on.
/// Range scans are scans; aggregates are priced separately because only
/// a 64-bit result crosses the interconnect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Point and batched lookups ([`LogicalOp::Get`]/[`LogicalOp::MultiGet`]).
    Get,
    /// Full and range scans returning records.
    Scan,
    /// Scans reduced on-device to a single aggregate.
    Aggregate,
}

impl OpClass {
    /// Classify a logical operation.
    pub fn of(op: &LogicalOp) -> Self {
        match op {
            LogicalOp::Get { .. } | LogicalOp::MultiGet { .. } => OpClass::Get,
            LogicalOp::Scan { .. } | LogicalOp::RangeScan { .. } => OpClass::Scan,
            LogicalOp::ScanAggregate { .. } => OpClass::Aggregate,
        }
    }

    /// Stable display name (used by EXPLAIN).
    pub fn name(self) -> &'static str {
        match self {
            OpClass::Get => "get",
            OpClass::Scan => "scan",
            OpClass::Aggregate => "aggregate",
        }
    }

    fn index(self) -> usize {
        match self {
            OpClass::Get => 0,
            OpClass::Scan => 1,
            OpClass::Aggregate => 2,
        }
    }
}

fn backend_index(b: Backend) -> usize {
    match b {
        Backend::Software => 0,
        Backend::Hardware => 1,
        Backend::Hybrid => 2,
    }
}

/// Table-shape inputs the cost model prices against, captured from the
/// LSM tree and platform at planning time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostInputs {
    /// Flash-resident data blocks the op may touch.
    pub flash_blocks: u64,
    /// Flash-resident data bytes behind those blocks.
    pub flash_bytes: u64,
    /// Live memtable entries (served without touching flash).
    pub memtable_records: u64,
    /// Fixed record width of the table.
    pub record_bytes: u64,
    /// DRAM block-cache hit rate (0.0 while the cache is off or cold).
    pub cache_hit_rate: f64,
    /// Keys in the lookup (1 for a point GET, N for a batch).
    pub batch_keys: u64,
}

/// One tier's price. `cost_ns` is `None` when the op does not lower on
/// that tier (e.g. a predicate chain deeper than the PE pipeline).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierCost {
    pub backend: Backend,
    pub cost_ns: Option<f64>,
}

/// The adaptive planner's decision record: what was priced, what was
/// chosen, and why. Rendered by `EXPLAIN` and returned alongside every
/// adaptively executed op.
#[derive(Debug, Clone, PartialEq)]
pub struct CostReport {
    /// Shape class the feedback state was keyed on.
    pub class: OpClass,
    /// The winning tier (cheapest feasible estimate; ties break toward
    /// the earlier entry in Software → Hardware → Hybrid order).
    pub chosen: Backend,
    /// Per-tier estimates in candidate order.
    pub tiers: [TierCost; 3],
    /// Whether the class had crossed [`PROMOTE_AFTER`] sightings (warm
    /// hardware model) when this decision was made.
    pub hot: bool,
    /// Sightings of this class before this decision.
    pub seen: u64,
    /// Inputs the estimates were computed from.
    pub inputs: CostInputs,
}

impl CostReport {
    /// Multi-line rendering appended to `EXPLAIN` output. Stable format
    /// (pinned by bench snapshot tests):
    ///
    /// ```text
    ///   cost: software 1.234 ms, hardware 0.456 ms, hybrid n/a
    ///   adaptive: chose hardware (scan hot after 5 sightings)
    /// ```
    pub fn render(&self) -> String {
        let mut line = String::from("  cost:");
        for (i, t) in self.tiers.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            match t.cost_ns {
                Some(ns) => {
                    line.push_str(&format!(" {} {:.3} ms", t.backend.name(), ns / 1.0e6));
                }
                None => line.push_str(&format!(" {} n/a", t.backend.name())),
            }
        }
        let heat = if self.hot { "hot" } else { "cold" };
        format!(
            "{line}\n  adaptive: chose {} ({} {} after {} sighting{})\n",
            self.chosen.name(),
            self.class.name(),
            heat,
            self.seen,
            if self.seen == 1 { "" } else { "s" },
        )
    }
}

/// Per-table adaptive state: sighting counters per op class and an
/// observed-latency EWMA per (class, tier). Purely a function of the
/// operations executed against the table, so runs stay deterministic.
#[derive(Debug, Clone, Default)]
pub struct AdaptState {
    seen: [u64; 3],
    ewma_ns: [[Option<f64>; 3]; 3],
}

impl AdaptState {
    /// Sightings of `class` so far.
    pub fn seen(&self, class: OpClass) -> u64 {
        self.seen[class.index()]
    }

    /// Whether `class` has crossed the promotion threshold.
    pub fn hot(&self, class: OpClass) -> bool {
        self.seen(class) >= PROMOTE_AFTER
    }

    /// Record one adaptively executed op: bump the class's sighting
    /// counter and fold the observed latency into the tier's EWMA.
    pub fn record(&mut self, class: OpClass, backend: Backend, observed_ns: u64) {
        self.seen[class.index()] += 1;
        let slot = &mut self.ewma_ns[class.index()][backend_index(backend)];
        let obs = observed_ns as f64;
        *slot = Some(match *slot {
            Some(prev) => (1.0 - EWMA_ALPHA) * prev + EWMA_ALPHA * obs,
            None => obs,
        });
    }

    /// The model estimate for (class, tier), blended with the observed
    /// EWMA when one exists. Cold classes trust the analytic model
    /// alone — early observations are taken on cold caches and would
    /// defeat the promotion brake by making every alternative tier look
    /// cheap relative to the first (slow) sightings.
    fn blended(&self, class: OpClass, backend: Backend, model_ns: f64) -> f64 {
        if !self.hot(class) {
            return model_ns;
        }
        match self.ewma_ns[class.index()][backend_index(backend)] {
            Some(obs) => (1.0 - FEEDBACK_BLEND) * model_ns + FEEDBACK_BLEND * obs,
            None => model_ns,
        }
    }
}

/// ARM register-access time of one block job, a one-rule job launched
/// the way `invoke` says under the table's register protocol.
fn hw_block_cfg_ns(profile: DriverProfile, invoke: PeInvoke) -> f64 {
    let io = job_io(profile, 1, 1, invoke, false);
    cfg_overhead_ns(io.reg_writes, io.reg_reads) as f64
}

/// Nanoseconds to stream one byte off the flash array at aggregate
/// channel bandwidth.
fn flash_ns_per_byte() -> f64 {
    1.0e9 / FLASH_AGGREGATE_BW
}

/// ARM software filter cost for `bytes` of records.
fn arm_filter_ns(bytes: u64) -> f64 {
    bytes as f64 * ARM_FILTER_PS_PER_BYTE as f64 / 1000.0
}

/// Analytic per-tier estimate (before feedback blending). Returns the
/// model cost in nanoseconds.
fn model_ns(
    class: OpClass,
    backend: Backend,
    inputs: &CostInputs,
    profile: DriverProfile,
    hot: bool,
) -> f64 {
    let blocks = inputs.flash_blocks as f64;
    let bytes = inputs.flash_bytes as f64;
    let hit = inputs.cache_hit_rate.clamp(0.0, 1.0);
    let base = FIRMWARE_OP_OVERHEAD_NS as f64;
    match class {
        OpClass::Get => {
            let keys = inputs.batch_keys.max(1) as f64;
            // Common walk: memtable probe, then (bloom-pruned) index
            // descent; approximate one index-page visit per key.
            let walk = ARM_MEMTABLE_PROBE_NS as f64
                + if inputs.flash_blocks > 0 {
                    FLASH_PAGE_READ_NS as f64 * (1.0 - hit)
                } else {
                    0.0
                };
            // Per-key tail: ARM binary search vs PE filter of one block.
            let block_bytes = if inputs.flash_blocks > 0 { bytes / blocks } else { 0.0 };
            let per_key = match backend {
                Backend::Software => ARM_BLOCK_SEARCH_NS as f64,
                Backend::Hardware | Backend::Hybrid => {
                    let cfg = if keys > 1.0 {
                        // Batched keys ride one descriptor: one full
                        // config plus a per-key START strobe.
                        hw_block_cfg_ns(profile, PeInvoke::Keyed)
                            + hw_block_cfg_ns(profile, PeInvoke::Warm) / keys
                    } else {
                        hw_block_cfg_ns(profile, PeInvoke::Warm)
                    };
                    cfg + block_bytes / inputs.record_bytes.max(1) as f64 * PL_CLK_NS as f64
                }
            };
            base + keys * (walk + per_key)
        }
        OpClass::Scan | OpClass::Aggregate => {
            // Memtable entries are filtered on the ARM on every tier.
            let memtable_ns = arm_filter_ns(inputs.memtable_records * inputs.record_bytes);
            let scan = match backend {
                Backend::Software => {
                    blocks * ARM_SW_BLOCK_OVERHEAD_NS as f64 + arm_filter_ns(inputs.flash_bytes)
                }
                Backend::Hardware | Backend::Hybrid => {
                    // Warm: flash streaming overlaps PE filtering; the
                    // pipeline runs at the slower of the two rates, and
                    // cache hits discount the flash leg.
                    let stream_flash = bytes * (1.0 - hit) * flash_ns_per_byte();
                    let tuples = bytes / inputs.record_bytes.max(1) as f64;
                    let stream_pe = tuples * PL_CLK_NS as f64;
                    let mut hw = blocks * hw_block_cfg_ns(profile, PeInvoke::Warm)
                        + stream_flash.max(stream_pe);
                    if !hot {
                        // Cold: assume no read-ahead overlap — every
                        // block pays its page reads serially. This is
                        // the promotion brake that keeps one-off scans
                        // on the ARM path.
                        let pages_per_block = if inputs.flash_blocks > 0 {
                            (bytes / blocks / f64::from(FLASH_PAGE_BYTES)).ceil()
                        } else {
                            0.0
                        };
                        hw += blocks * pages_per_block * FLASH_PAGE_READ_NS as f64;
                    }
                    if backend == Backend::Hybrid && class == OpClass::Scan {
                        // The ARM residual re-touches the pushed-down
                        // survivors; without selectivity statistics,
                        // charge a quarter of the software filter cost.
                        hw += 0.25 * arm_filter_ns(inputs.flash_bytes);
                    }
                    hw
                }
            };
            base + memtable_ns + scan
        }
    }
}

/// Price `op` on every tier and pick the cheapest feasible one. The
/// hardware tiers pay the register I/O of the table's driver `profile`.
///
/// `feasible` reports whether the op lowers on a tier at all (the
/// caller consults the real planner, so infeasibility here matches
/// lowering errors exactly). Ties break toward the earlier candidate in
/// Software → Hardware → Hybrid order, which keeps the choice stable
/// under floating-point equality.
pub fn choose(
    state: &AdaptState,
    op: &LogicalOp,
    inputs: CostInputs,
    profile: DriverProfile,
    feasible: impl Fn(Backend) -> bool,
) -> CostReport {
    let class = OpClass::of(op);
    let hot = state.hot(class);
    let candidates = [Backend::Software, Backend::Hardware, Backend::Hybrid];
    let mut tiers = [TierCost { backend: Backend::Software, cost_ns: None }; 3];
    let mut chosen = Backend::Software;
    let mut best: Option<f64> = None;
    for (i, b) in candidates.into_iter().enumerate() {
        let cost = if feasible(b) {
            Some(state.blended(class, b, model_ns(class, b, &inputs, profile, hot)))
        } else {
            None
        };
        tiers[i] = TierCost { backend: b, cost_ns: cost };
        if let Some(c) = cost {
            if best.is_none_or(|b0| c < b0) {
                best = Some(c);
                chosen = b;
            }
        }
    }
    CostReport { class, chosen, tiers, hot, seen: state.seen(class), inputs }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan_op() -> LogicalOp {
        LogicalOp::Scan { rules: vec![] }
    }

    fn flash_heavy() -> CostInputs {
        CostInputs {
            flash_blocks: 32,
            flash_bytes: 32 * 32 * 1024,
            memtable_records: 10,
            record_bytes: 88,
            cache_hit_rate: 0.0,
            batch_keys: 1,
        }
    }

    #[test]
    fn cold_scans_stay_on_the_arm_path() {
        let state = AdaptState::default();
        let r = choose(&state, &scan_op(), flash_heavy(), DriverProfile::Generated, |_| true);
        assert!(!r.hot);
        assert_eq!(r.chosen, Backend::Software, "cold estimate must brake promotion: {r:?}");
    }

    #[test]
    fn hot_flash_heavy_scans_promote_to_hardware() {
        let mut state = AdaptState::default();
        for _ in 0..PROMOTE_AFTER {
            state.record(OpClass::Scan, Backend::Software, 5_000_000);
        }
        let r = choose(&state, &scan_op(), flash_heavy(), DriverProfile::Generated, |_| true);
        assert!(r.hot);
        assert_eq!(r.chosen, Backend::Hardware, "warm estimate must promote: {r:?}");
    }

    #[test]
    fn memtable_only_scans_never_promote() {
        let mut state = AdaptState::default();
        for _ in 0..10 {
            state.record(OpClass::Scan, Backend::Software, 10_000);
        }
        let inputs = CostInputs {
            flash_blocks: 0,
            flash_bytes: 0,
            memtable_records: 100,
            record_bytes: 88,
            cache_hit_rate: 0.0,
            batch_keys: 1,
        };
        let r = choose(&state, &scan_op(), inputs, DriverProfile::Generated, |_| true);
        assert_eq!(r.chosen, Backend::Software);
    }

    #[test]
    fn narrow_record_gets_prefer_software() {
        // 20-byte records pack 1638 tuples per 32 KiB block: streaming
        // them through the PE plus the per-GET config tax (Fig. 7(a))
        // loses to the ARM's fixed binary search. Wide records can tip
        // the other way — the DES itself pins the GET HW/SW ratio only
        // to "near 1" (`exec::tests::get_hw_does_not_profit_over_sw`).
        let inputs = CostInputs {
            flash_blocks: 32,
            flash_bytes: 32 * 32 * 1024,
            memtable_records: 10,
            record_bytes: 20,
            cache_hit_rate: 0.0,
            batch_keys: 1,
        };
        let r = choose(
            &AdaptState::default(),
            &LogicalOp::Get { key: 7 },
            inputs,
            DriverProfile::Generated,
            |_| true,
        );
        assert_eq!(r.chosen, Backend::Software, "{r:?}");
    }

    #[test]
    fn infeasible_tiers_are_priced_as_n_a() {
        let state = AdaptState::default();
        let r = choose(&state, &scan_op(), flash_heavy(), DriverProfile::Generated, |b| {
            b == Backend::Hybrid
        });
        assert_eq!(r.chosen, Backend::Hybrid);
        assert!(r.tiers[0].cost_ns.is_none() && r.tiers[1].cost_ns.is_none());
        assert!(r.render().contains("software n/a"));
    }

    #[test]
    fn feedback_rewrites_a_misleading_model() {
        let mut state = AdaptState::default();
        for _ in 0..PROMOTE_AFTER {
            state.record(OpClass::Scan, Backend::Software, 1);
        }
        // Observed software latencies near zero: even though the model
        // says hardware wins on this shape, the blend keeps software.
        let r = choose(&state, &scan_op(), flash_heavy(), DriverProfile::Generated, |_| true);
        assert_eq!(r.chosen, Backend::Software, "{r:?}");
    }

    #[test]
    fn render_is_stable() {
        let state = AdaptState::default();
        let r = choose(&state, &scan_op(), flash_heavy(), DriverProfile::Generated, |_| true);
        let text = r.render();
        assert!(text.starts_with("  cost: software "), "{text}");
        assert!(text.contains("hardware "), "{text}");
        assert!(text.contains("adaptive: chose software (scan cold after 0 sightings)"), "{text}");
    }
}
