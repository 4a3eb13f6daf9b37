//! Deterministic fault injection for the simulated device.
//!
//! The paper's premise is that GET/SCAN execute *on the device*, below
//! the host's error-handling stack — so the simulated platform must
//! survive what real NAND and real PEs produce, not just the happy path
//! the figure repro exercises. A [`FaultPlan`] describes, from one seed
//! and an optional explicit schedule, every fault class the resilience
//! layer in `nkv` is built against:
//!
//! * **transient read failures** — the read fails, an immediate retry
//!   succeeds (bus glitches, read-disturb near threshold);
//! * **persistent read failures** — grown bad pages whose data is gone
//!   until rewritten elsewhere (uncorrectable ECC);
//! * **correctable ECC** — the read succeeds after error correction,
//!   costing extra latency and signalling that the page is degrading
//!   (the read-repair trigger);
//! * **DRAM/AXI stall bursts** — the shared PS-DRAM port stops serving
//!   for a burst (refresh storms, arbitration pathologies);
//! * **PE hangs** — an accelerator never raises DONE (the watchdog /
//!   HW→SW degradation trigger);
//! * **power cut** — at a chosen program operation the in-flight page
//!   write is torn mid-page and every later flash op fails until the
//!   device "reboots".
//!
//! **Determinism.** All randomness comes from `FaultRng` (SplitMix64)
//! streams derived from `FaultPlan::seed`; the same plan over the same
//! operation sequence produces the same faults, so every chaos-test
//! failure is replayable from its seed.
//!
//! **Zero overhead when disabled.** Components store fault state as
//! `Option<…>` that defaults to `None`; the disabled path is a single
//! branch with no RNG draws and no timing charges, so simulated results
//! with faults off are byte-identical to a build without this module.

use crate::flash::PhysAddr;
use crate::SimNs;
use std::collections::HashMap;

/// SplitMix64: small, seedable, statistically solid. Local to the
/// simulator so fault injection needs no external dependency.
#[derive(Debug, Clone)]
pub(crate) struct FaultRng {
    state: u64,
}

impl FaultRng {
    /// Generator from a raw seed.
    pub(crate) fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Decorrelated stream `stream` of a base seed (so flash, DRAM and
    /// PE faults draw independently from one plan seed).
    pub(crate) fn stream(seed: u64, stream: u64) -> Self {
        let mut r = Self::new(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64(); // one warm-up step decorrelates nearby seeds
        r
    }

    /// Next raw 64-bit output.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub(crate) fn gen_u64(&mut self, bound: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Bernoulli trial with probability `p`.
    pub(crate) fn gen_bool(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        ((self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)) < p
    }
}

/// An explicitly scheduled flash fault (applied at install time, on top
/// of the random rates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlashFaultKind {
    /// The next `failures` reads of the page fail, then reads succeed
    /// again. A *retry* recovers transient faults; nothing else does.
    Transient { failures: u32 },
    /// Grown bad page: every read fails with uncorrectable ECC until the
    /// logical data is relocated. Rebooting does **not** clear it.
    Persistent,
    /// Reads succeed after ECC correction with a latency penalty, and
    /// the page's degradation counter grows (read-repair trigger).
    Correctable,
}

/// One entry of a [`FaultPlan`]'s explicit schedule.
#[derive(Debug, Clone, Copy)]
pub struct ScheduledFault {
    pub addr: PhysAddr,
    pub kind: FlashFaultKind,
}

/// The full, seeded description of an injection campaign.
///
/// Probabilities are per-operation rates; `schedule` pins specific
/// faults to specific pages. `FaultPlan::default()` injects nothing.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Master seed; every component derives an independent stream.
    pub seed: u64,
    /// Per-read probability of a fresh transient failure.
    pub transient_read_p: f64,
    /// Per-read probability the page is hit by a *correctable* ECC
    /// event (latency penalty + degradation count).
    pub correctable_p: f64,
    /// Per-read probability the page becomes a grown bad page
    /// (persistent uncorrectable failure).
    pub bad_growth_p: f64,
    /// Per-transfer probability the DRAM port stalls for a burst.
    pub dram_stall_p: f64,
    /// Stall burst duration bounds `(min_ns, max_ns)`.
    pub dram_stall_ns: (SimNs, SimNs),
    /// Per-block probability a PE hangs (DONE never observed).
    pub pe_hang_p: f64,
    /// Cut power during the `n`-th page program from install (0-based):
    /// that write is torn and all later flash ops fail until
    /// [`crate::FlashArray::reboot`].
    pub power_cut_at_write: Option<u64>,
    /// Faults pinned to specific pages, applied at install.
    pub schedule: Vec<ScheduledFault>,
}

impl FaultPlan {
    /// A plan that injects nothing (identical to running with faults
    /// disabled, but exercises the enabled code path).
    #[cfg(test)]
    pub(crate) fn quiet(seed: u64) -> Self {
        Self { seed, ..Self::default() }
    }
}

/// Extra LUN occupancy charged when a read needs ECC correction
/// (re-read + correction pipeline; order of an extra tR).
pub(crate) const ECC_CORRECTION_NS: SimNs = 60_000;

/// Counters the flash array keeps while faults are installed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlashFaultStats {
    /// Reads that failed transiently.
    pub transient_failures: u64,
    /// Reads that needed ECC correction (latency penalty paid).
    pub correctable_hits: u64,
    /// Pages that became grown bad pages (randomly or via schedule).
    pub grown_bad_pages: u64,
    /// Page programs torn by a power cut (0 or 1 per cut).
    pub torn_writes: u64,
    /// Flash operations rejected because power was out.
    pub(crate) rejected_while_cut: u64,
}

/// Per-array fault state, owned by `FlashArray` (cloned with it, so a
/// flash image carried across a simulated reboot keeps its grown-bad
/// and degradation history).
#[derive(Debug, Clone)]
pub(crate) struct FlashFaultState {
    pub(crate) rng: FaultRng,
    pub(crate) transient_read_p: f64,
    pub(crate) correctable_p: f64,
    pub(crate) bad_growth_p: f64,
    /// Remaining forced failures per page (transient faults).
    pub(crate) transient: HashMap<PhysAddr, u32>,
    /// Pages pinned to correctable-ECC behaviour by the schedule.
    pub(crate) sticky_correctable: HashMap<PhysAddr, ()>,
    /// ECC-correction count per page since install (degradation).
    pub(crate) correctable_counts: HashMap<PhysAddr, u32>,
    /// Programs remaining until the power cut strikes.
    pub(crate) writes_until_cut: Option<u64>,
    /// True once the cut struck and the device has not rebooted.
    pub(crate) power_is_cut: bool,
    pub(crate) stats: FlashFaultStats,
}

impl FlashFaultState {
    pub(crate) fn from_plan(plan: &FaultPlan) -> Self {
        Self {
            rng: FaultRng::stream(plan.seed, 1),
            transient_read_p: plan.transient_read_p,
            correctable_p: plan.correctable_p,
            bad_growth_p: plan.bad_growth_p,
            transient: HashMap::new(),
            sticky_correctable: HashMap::new(),
            correctable_counts: HashMap::new(),
            writes_until_cut: plan.power_cut_at_write,
            power_is_cut: false,
            stats: FlashFaultStats::default(),
        }
    }
}

/// Counters the DRAM port keeps while faults are installed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramFaultStats {
    /// Transfers delayed by a stall burst.
    pub stalls: u64,
    /// Total stall time inserted.
    pub stall_ns_total: SimNs,
}

/// Per-port fault state, owned by `Dram`.
#[derive(Debug, Clone)]
pub(crate) struct DramFaultState {
    pub(crate) rng: FaultRng,
    pub(crate) stall_p: f64,
    pub(crate) stall_ns: (SimNs, SimNs),
    pub(crate) stats: DramFaultStats,
}

impl DramFaultState {
    pub(crate) fn from_plan(plan: &FaultPlan) -> Self {
        Self {
            rng: FaultRng::stream(plan.seed, 2),
            stall_p: plan.dram_stall_p,
            stall_ns: plan.dram_stall_ns,
            stats: DramFaultStats::default(),
        }
    }
}

/// A *device-level* fault class: the whole device (not one page, port
/// or PE) leaves service. These are the fleet-level fault domains a
/// multi-device cluster router is built against — one device hanging,
/// power-cutting or graying out must degrade the cluster, never take it
/// down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceFaultKind {
    /// The device stops answering: every operation after the trip is
    /// swallowed (firmware wedge, controller lockup). A device reset
    /// ([`crate::CosmosPlatform::clear_device_fault`]) restores it with
    /// its state intact.
    Hang,
    /// The device loses power: every operation is rejected and all
    /// volatile state (memtables, caches, queue bookkeeping) is gone.
    /// Only the flash image survives; recovery must rebuild from it.
    PowerCut,
    /// The NVMe link to the host drops: commands cannot be submitted or
    /// completed. The device itself is fine — re-establishing the link
    /// restores service with state intact.
    LinkLoss,
    /// Gray failure: the device keeps answering, but every operation
    /// takes `factor_x10 / 10` times as long (thermal throttling, a
    /// dying capacitor bank, a flaky PHY retraining on every transfer).
    Slow { factor_x10: u32 },
}

/// A scheduled device-level fault: trip `kind` once `after_ops`
/// operations have been admitted (0 = the very next operation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceFaultPlan {
    pub kind: DeviceFaultKind,
    /// Operations admitted normally before the fault trips.
    pub after_ops: u64,
}

/// Counters the platform keeps while a device fault plan is installed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceFaultStats {
    /// Whether the fault has tripped yet.
    pub(crate) tripped: bool,
    /// Operations admitted normally (before the trip).
    pub(crate) ops_admitted: u64,
    /// Operations rejected after a Hang/PowerCut/LinkLoss trip.
    pub(crate) ops_rejected: u64,
    /// Operations served slowly after a Slow trip.
    pub ops_slowed: u64,
}

/// Device-fault state, owned by `CosmosPlatform`. The platform only
/// *admits* operations ([`crate::CosmosPlatform::device_op_admit`]);
/// the cluster router decides what a rejection means (retry, failover,
/// quarantine).
#[derive(Debug, Clone)]
pub(crate) struct DeviceFaultState {
    pub(crate) plan: DeviceFaultPlan,
    pub(crate) ops_seen: u64,
    pub(crate) stats: DeviceFaultStats,
}

impl DeviceFaultState {
    pub(crate) fn from_plan(plan: DeviceFaultPlan) -> Self {
        Self { plan, ops_seen: 0, stats: DeviceFaultStats::default() }
    }
}

/// Outcome of admitting one operation on a device (see
/// [`crate::CosmosPlatform::device_op_admit`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceAdmission {
    /// The device serves the operation normally.
    Ok,
    /// The device serves the operation `factor_x10 / 10` times slower
    /// (gray failure).
    Slow { factor_x10: u32 },
    /// The device does not serve the operation at all.
    Rejected(DeviceFaultKind),
}

/// PE-hang state, owned by `CosmosPlatform` (the PEs themselves live in
/// `nkv`'s executor; the platform decides *whether* the next block job
/// hangs, the executor decides what that means).
#[derive(Debug, Clone)]
pub(crate) struct PeFaultState {
    pub(crate) rng: FaultRng,
    pub(crate) hang_p: f64,
    /// Block jobs whose DONE was never observed.
    pub(crate) hangs: u64,
}

impl PeFaultState {
    pub(crate) fn from_plan(plan: &FaultPlan) -> Self {
        Self { rng: FaultRng::stream(plan.seed, 3), hang_p: plan.pe_hang_p, hangs: 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_streams_are_decorrelated_and_deterministic() {
        let mut a1 = FaultRng::stream(7, 1);
        let mut a2 = FaultRng::stream(7, 1);
        let mut b = FaultRng::stream(7, 2);
        let xs: Vec<u64> = (0..4).map(|_| a1.next_u64()).collect();
        let ys: Vec<u64> = (0..4).map(|_| a2.next_u64()).collect();
        let zs: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn gen_bool_respects_edge_probabilities() {
        let mut r = FaultRng::new(5);
        assert!(!(0..100).any(|_| r.gen_bool(0.0)));
        assert!((0..100).all(|_| r.gen_bool(1.0)));
        let hits = (0..10_000).filter(|_| r.gen_bool(0.3)).count();
        assert!((2_500..3_500).contains(&hits), "got {hits}");
    }

    #[test]
    fn default_plan_is_quiet() {
        let p = FaultPlan::default();
        assert_eq!(p.transient_read_p, 0.0);
        assert_eq!(p.power_cut_at_write, None);
        assert!(p.schedule.is_empty());
    }

    #[test]
    fn device_fault_state_trips_after_the_scheduled_ops() {
        let mut st = DeviceFaultState::from_plan(DeviceFaultPlan {
            kind: DeviceFaultKind::Hang,
            after_ops: 2,
        });
        assert!(!st.stats.tripped);
        st.ops_seen += 2;
        st.stats.ops_admitted += 2;
        assert_eq!(st.plan.after_ops, 2);
        assert_eq!(st.stats.ops_admitted, 2);
    }
}
