//! The assembled Cosmos+ platform.
//!
//! Bundles flash, DRAM, the ARM core and the NVMe host link into one
//! device model ([`CosmosPlatform`]), parameterized by [`CosmosConfig`]
//! and by the firmware generation ([`FirmwareEra`]) — the paper notes its
//! measurements use an *updated* firmware that is ~10 % slower on GET
//! than the firmware of \[1\] ("traded some performance for higher
//! reliability").

use crate::cache::{BlockCache, CacheStats};
use crate::dram::Dram;
use crate::faults::{
    DeviceAdmission, DeviceFaultKind, DeviceFaultPlan, DeviceFaultState, DeviceFaultStats,
    FaultPlan, PeFaultState,
};
use crate::flash::{FlashArray, FlashConfig};
use crate::queue::{NvmeQueueConfig, NvmeQueues, CQE_BYTES, SQE_BYTES};
use crate::server::{BandwidthLink, Server};
use crate::trace::{TraceEvent, TraceKind, TraceRing};
use crate::{timing, SimNs};

/// Which firmware generation timing applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FirmwareEra {
    /// The firmware used by Vinçon et al. \[1\].
    Original,
    /// The updated, reliability-hardened firmware of this work
    /// (per-operation overhead, see [`timing::FIRMWARE_OP_OVERHEAD_NS`]).
    Updated,
}

impl FirmwareEra {
    /// Fixed overhead added to every KV operation under this firmware.
    pub fn op_overhead_ns(self) -> SimNs {
        match self {
            FirmwareEra::Original => 0,
            FirmwareEra::Updated => timing::FIRMWARE_OP_OVERHEAD_NS,
        }
    }
}

/// Platform-level configuration.
#[derive(Debug, Clone)]
pub struct CosmosConfig {
    pub flash: FlashConfig,
    pub firmware: FirmwareEra,
}

impl Default for CosmosConfig {
    fn default() -> Self {
        Self { flash: FlashConfig::default(), firmware: FirmwareEra::Updated }
    }
}

/// The simulated device.
pub struct CosmosPlatform {
    pub flash: FlashArray,
    pub dram: Dram,
    /// The ARM Cortex-A9 executing the firmware and software NDP.
    pub arm: Server,
    /// NVMe link to the host.
    pub nvme: BandwidthLink,
    pub firmware: FirmwareEra,
    /// PE-hang injection state; `None` (the default) means every
    /// hang roll answers "no" without drawing randomness.
    pe_faults: Option<PeFaultState>,
    /// Platform-level span ring (PE jobs, NVMe transfers, register
    /// accesses); `None` (the default) costs one branch per record site.
    trace: Option<TraceRing>,
    /// NVMe queue pairs for multi-tenant command admission; `None` (the
    /// default) keeps the serial one-op-at-a-time path untouched.
    queues: Option<NvmeQueues>,
    /// Device-DRAM block cache over SST data/index pages; `None` (the
    /// default) keeps every read on the flash path untouched.
    cache: Option<BlockCache>,
    /// Device-level fault plan (hang/power-cut/link-loss/slow); `None`
    /// (the default) admits every operation without counting anything.
    device_faults: Option<DeviceFaultState>,
    /// The latest horizon passed to [`Self::advance_horizon`].
    horizon: SimNs,
}

impl CosmosPlatform {
    /// Build a platform from `cfg`.
    pub fn new(cfg: CosmosConfig) -> Self {
        Self {
            flash: FlashArray::new(cfg.flash),
            dram: Dram::new(),
            arm: Server::new(),
            nvme: BandwidthLink::new(timing::NVME_LINK_BW),
            firmware: cfg.firmware,
            pe_faults: None,
            trace: None,
            queues: None,
            cache: None,
            device_faults: None,
            horizon: 0,
        }
    }

    /// Default platform (updated firmware, default geometry).
    pub fn default_platform() -> Self {
        Self::new(CosmosConfig::default())
    }

    /// ARM software filtering time for `bytes` of packed tuples.
    pub fn arm_filter_ns(&self, bytes: u64) -> SimNs {
        (bytes * timing::ARM_FILTER_PS_PER_BYTE).div_ceil(1000) + timing::ARM_SW_BLOCK_OVERHEAD_NS
    }

    /// Install a fault plan device-wide: flash, DRAM port and PE hangs
    /// all draw from independent streams of the plan's seed.
    pub fn install_faults(&mut self, plan: &FaultPlan) {
        self.flash.install_faults(plan);
        self.dram.install_faults(plan);
        self.pe_faults = Some(PeFaultState::from_plan(plan));
    }

    /// Drop all fault-injection state (flash damage already grown
    /// persists, matching physical reality).
    pub fn clear_faults(&mut self) {
        self.flash.clear_faults();
        self.dram.clear_faults();
        self.pe_faults = None;
    }

    /// Roll whether the next hardware block job hangs (DONE never set).
    /// The executor's watchdog decides what a hang *means*; the
    /// platform only decides deterministically *whether* it happens.
    pub fn roll_pe_hang(&mut self) -> bool {
        match &mut self.pe_faults {
            Some(f) if f.hang_p > 0.0 => {
                let hang = f.rng.gen_bool(f.hang_p);
                if hang {
                    f.hangs += 1;
                }
                hang
            }
            _ => false,
        }
    }

    /// PE hangs injected so far (zero when no plan is installed).
    pub fn pe_hangs(&self) -> u64 {
        self.pe_faults.as_ref().map_or(0, |f| f.hangs)
    }

    /// Install a *device-level* fault plan: after `plan.after_ops`
    /// admitted operations the whole device hangs, power-cuts, loses
    /// its NVMe link or turns slow. Replaces any previous device plan.
    pub fn install_device_fault(&mut self, plan: DeviceFaultPlan) {
        self.device_faults = Some(DeviceFaultState::from_plan(plan));
    }

    /// Drop the device-level fault state: models a device reset (Hang),
    /// a link re-establishment (LinkLoss) or the end of a throttling
    /// episode (Slow). Power restoration after a PowerCut also goes
    /// through here, but volatile state is the *caller's* to discard —
    /// the platform only stops rejecting operations.
    pub fn clear_device_fault(&mut self) {
        self.device_faults = None;
    }

    /// The device-fault kind currently in force (`None` before the trip
    /// or when no plan is installed).
    pub fn device_fault_active(&self) -> Option<DeviceFaultKind> {
        self.device_faults.as_ref().filter(|f| f.stats.tripped).map(|f| f.plan.kind)
    }

    /// Device-fault counters (`None` when no plan is installed).
    pub fn device_fault_stats(&self) -> Option<DeviceFaultStats> {
        self.device_faults.as_ref().map(|f| f.stats)
    }

    /// Admit one device operation against the installed device fault
    /// plan. Counts the operation, trips the fault once `after_ops`
    /// admissions have passed, and reports how the device answers:
    /// normally, slowly (gray failure) or not at all. With no plan
    /// installed this is a single branch and always admits.
    pub fn device_op_admit(&mut self) -> DeviceAdmission {
        let Some(f) = &mut self.device_faults else {
            return DeviceAdmission::Ok;
        };
        if !f.stats.tripped {
            if f.ops_seen < f.plan.after_ops {
                f.ops_seen += 1;
                f.stats.ops_admitted += 1;
                return DeviceAdmission::Ok;
            }
            f.stats.tripped = true;
        }
        match f.plan.kind {
            DeviceFaultKind::Slow { factor_x10 } => {
                f.stats.ops_slowed += 1;
                DeviceAdmission::Slow { factor_x10 }
            }
            kind => {
                f.stats.ops_rejected += 1;
                DeviceAdmission::Rejected(kind)
            }
        }
    }

    /// Enable device-wide event tracing: flash, DRAM and the platform
    /// ring each hold up to `capacity` spans.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.flash.enable_tracing(capacity);
        self.dram.enable_tracing(capacity);
        self.trace = Some(TraceRing::new(capacity));
    }

    /// Whether device-wide tracing is on.
    pub fn tracing_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// Record one PE block job span (START → DONE).
    pub fn trace_pe_job(&mut self, pe: u32, start: SimNs, dur: SimNs, cycles: u64) {
        if let Some(t) = &mut self.trace {
            t.record(TraceEvent { kind: TraceKind::PeJob { pe, cycles }, start, dur });
        }
    }

    /// Record one NVMe host-transfer span.
    pub fn trace_nvme(&mut self, start: SimNs, dur: SimNs, bytes: u64) {
        if let Some(t) = &mut self.trace {
            t.record(TraceEvent { kind: TraceKind::NvmeTransfer { bytes }, start, dur });
        }
    }

    /// Record one batch of PE control-register accesses.
    pub fn trace_reg_access(&mut self, pe: u32, start: SimNs, dur: SimNs, writes: u64, reads: u64) {
        if let Some(t) = &mut self.trace {
            t.record(TraceEvent { kind: TraceKind::RegAccess { pe, writes, reads }, start, dur });
        }
    }

    /// Drain every span recorded device-wide (flash + DRAM + platform),
    /// merged and sorted by start time. Empty when tracing is disabled.
    pub fn drain_trace(&mut self) -> Vec<TraceEvent> {
        let mut evs = self.flash.take_trace();
        evs.extend(self.dram.take_trace());
        if let Some(t) = &mut self.trace {
            evs.extend(t.drain());
        }
        evs.sort_by_key(|e| (e.start, e.dur));
        evs
    }

    /// Total spans evicted from any of the three rings.
    pub fn trace_dropped(&self) -> u64 {
        self.flash.trace_dropped()
            + self.dram.trace_dropped()
            + self.trace.as_ref().map_or(0, TraceRing::dropped)
    }

    /// Expose NVMe queue pairs with geometry `cfg`. Until this is
    /// called the platform has no queue state at all and every
    /// operation takes the serial path. The resource timelines are the
    /// same either way: commands of different clients overlap on them
    /// by the one placement rule of the `server` module.
    pub fn enable_queues(&mut self, cfg: NvmeQueueConfig) {
        self.queues = Some(NvmeQueues::new(cfg));
    }

    /// Drop all queue state (in-flight bookkeeping and counters).
    pub fn disable_queues(&mut self) {
        self.queues = None;
    }

    /// Every device timeline: the ARM, the NVMe link, the DRAM port and
    /// the flash LUN, channel-bus and controller servers.
    fn timelines_mut(&mut self) -> impl Iterator<Item = &mut Server> {
        let fixed = [&mut self.arm, &mut self.nvme.server, &mut self.dram.port.server];
        fixed.into_iter().chain(self.flash.timelines_mut())
    }

    /// Promise that no later job arrives on this device before `horizon`,
    /// and let every device timeline forget the reservations that end at
    /// or before it ([`Server::forget_before`]). Returns whether the
    /// horizon moved. An unmoved one returns at once: a PUT that triggers
    /// no flush leaves the device clock where it was.
    pub fn advance_horizon(&mut self, horizon: SimNs) -> bool {
        if horizon <= self.horizon {
            return false;
        }
        self.horizon = horizon;
        self.timelines_mut().for_each(|s| s.forget_before(horizon));
        true
    }

    /// A power cycle leaves nothing in flight: empty every device
    /// timeline and put the horizon back to zero, so that a device
    /// rebuilt from a flash image carried over from another one starts
    /// its clock at zero on idle resources instead of behind the old
    /// device's reservations. Busy totals are counters and are kept.
    pub fn idle_timelines(&mut self) {
        self.horizon = 0;
        self.timelines_mut().for_each(Server::go_idle);
    }

    /// The queue pairs, when enabled.
    pub fn queues(&self) -> Option<&NvmeQueues> {
        self.queues.as_ref()
    }

    /// Spend `budget_bytes` of device DRAM on the block cache. Until
    /// this is called the platform has no cache state at all and every
    /// block read takes the flash path (byte-identical timing).
    pub fn enable_cache(&mut self, budget_bytes: usize) {
        self.cache = Some(BlockCache::new(budget_bytes));
    }

    /// Drop the cache and all its contents/counters.
    pub fn disable_cache(&mut self) {
        self.cache = None;
    }

    /// The block cache, when enabled.
    pub fn cache(&self) -> Option<&BlockCache> {
        self.cache.as_ref()
    }

    /// Mutable access to the block cache, when enabled.
    pub fn cache_mut(&mut self) -> Option<&mut BlockCache> {
        self.cache.as_mut()
    }

    /// Cache counters, when enabled.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(BlockCache::stats)
    }

    /// Invalidate every cached block of `sst_id` (no-op with the cache
    /// disabled). Returns how many entries were dropped.
    pub fn cache_evict_sst(&mut self, sst_id: u64) -> u64 {
        self.cache.as_mut().map_or(0, |c| c.evict_sst(sst_id))
    }

    /// Record one block-cache hit span (the DRAM burst itself is also
    /// recorded by the port as a `DramTransfer` with the `CacheHit`
    /// client).
    pub fn trace_cache_hit(
        &mut self,
        sst_id: u64,
        block: u64,
        bytes: u64,
        start: SimNs,
        dur: SimNs,
    ) {
        if let Some(t) = &mut self.trace {
            t.record(TraceEvent { kind: TraceKind::CacheHit { sst_id, block, bytes }, start, dur });
        }
    }

    /// Admit the single command `cid`: a
    /// [`queue_submit_batch`](Self::queue_submit_batch) of one.
    pub fn queue_submit(&mut self, client: u32, cid: u16, now: SimNs) -> (u16, SimNs, SimNs) {
        self.queue_submit_batch(client, cid, 1, now)
    }

    /// Post the completion of a command submitted alone: the last (and
    /// only) completion of its batch, see
    /// [`queue_complete_batched`](Self::queue_complete_batched).
    pub fn queue_complete(&mut self, qid: u16, cid: u16, exec_done: SimNs) -> SimNs {
        self.queue_complete_batched(qid, cid, exec_done, true)
    }

    /// Admit `n >= 1` commands (consecutive cids from `first_cid`) from
    /// `client` at `now`: pick the client's queue pair and claim `n`
    /// slots — stalling through the full-queue window exactly as `n`
    /// serial admissions would — then the host rings **one** SQ doorbell
    /// (one MMIO write) and the controller fetches all `n` 64 B SQEs in a
    /// single link burst. The `n - 1` saved doorbell writes are counted
    /// in [`QueueStats::coalesced_doorbells`](crate::queue::QueueStats::coalesced_doorbells).
    ///
    /// Returns `(qid, submit_ns, fetch_done_ns)`; the commands' execution
    /// should be scheduled at `fetch_done_ns`.
    ///
    /// Panics when queues are not enabled — the caller owns the choice
    /// of serial vs. queued path.
    pub fn queue_submit_batch(
        &mut self,
        client: u32,
        first_cid: u16,
        n: u16,
        now: SimNs,
    ) -> (u16, SimNs, SimNs) {
        assert!(n >= 1, "a batch admits at least one command");
        let (qid, submit) = {
            let q = self.queues.as_mut().expect("NVMe queues not enabled");
            let qid = q.pair_for_client(client);
            let mut at = now;
            for _ in 0..n {
                at = q.pair_mut(qid).admit(at);
            }
            q.pair_mut(qid).note_coalesced(u64::from(n) - 1);
            (qid, at)
        };
        let (grant, fetch_done) =
            self.nvme.transfer(submit + timing::MMIO_WRITE_NS, u64::from(n) * SQE_BYTES);
        if let Some(t) = &mut self.trace {
            t.record(TraceEvent {
                kind: TraceKind::QueueSubmit { qid, cid: first_cid },
                start: grant,
                dur: fetch_done - grant,
            });
        }
        (qid, submit, fetch_done)
    }

    /// Post the completion of command `cid` on pair `qid`: DMA the 16 B
    /// CQE over the NVMe link after the command's execution finishes at
    /// `exec_done`; the host acknowledges with one CQ-head doorbell write
    /// per submitted batch, at its **last** completion — earlier members
    /// complete at their CQE post itself (`last == false`), saving one
    /// MMIO write each (also counted in
    /// [`QueueStats::coalesced_doorbells`](crate::queue::QueueStats::coalesced_doorbells)).
    /// Returns the completion time the host observes, and frees the
    /// command's queue slot as of then.
    pub fn queue_complete_batched(
        &mut self,
        qid: u16,
        cid: u16,
        exec_done: SimNs,
        last: bool,
    ) -> SimNs {
        let (grant, cqe_done) = self.nvme.transfer(exec_done, CQE_BYTES);
        let complete = if last { cqe_done + timing::MMIO_WRITE_NS } else { cqe_done };
        if let Some(t) = &mut self.trace {
            t.record(TraceEvent {
                kind: TraceKind::QueueComplete { qid, cid },
                start: grant,
                dur: cqe_done - grant,
            });
        }
        let q = self.queues.as_mut().expect("NVMe queues not enabled");
        q.pair_mut(qid).commit(complete);
        if !last {
            q.pair_mut(qid).note_coalesced(1);
        }
        complete
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flash::PhysAddr;

    #[test]
    fn platform_assembles_with_defaults() {
        let p = CosmosPlatform::default_platform();
        assert_eq!(p.firmware, FirmwareEra::Updated);
        assert_eq!(p.flash.config().controllers, 2);
    }

    #[test]
    fn firmware_eras_differ_in_op_overhead() {
        assert_eq!(FirmwareEra::Original.op_overhead_ns(), 0);
        assert!(FirmwareEra::Updated.op_overhead_ns() > 0);
    }

    #[test]
    fn mmio_cost_matches_timing_table() {
        assert_eq!(timing::cfg_overhead_ns(1, 0), timing::MMIO_WRITE_NS);
        assert_eq!(timing::cfg_overhead_ns(0, 1), timing::MMIO_READ_NS);
    }

    #[test]
    fn arm_filter_time_scales_with_bytes() {
        let p = CosmosPlatform::default_platform();
        let one_block = p.arm_filter_ns(32 * 1024);
        let two_blocks = p.arm_filter_ns(64 * 1024);
        assert!(two_blocks > one_block);
        // ~8.15 ns per byte: a 32 KiB block costs ~267 µs + overhead.
        assert!((267_000..268_500).contains(&one_block), "got {one_block}");
    }

    #[test]
    fn queue_submit_accounts_doorbell_and_sqe_fetch() {
        let mut p = CosmosPlatform::default_platform();
        p.enable_queues(crate::queue::NvmeQueueConfig { queues: 2, depth: 4 });
        let (qid, submit, fetch) = p.queue_submit(3, 0, 1_000);
        assert_eq!(qid, 1, "client 3 of 2 queues lands on pair 1");
        assert_eq!(submit, 1_000);
        // Doorbell MMIO then a 64 B SQE fetch on an idle link.
        let expected =
            submit + timing::MMIO_WRITE_NS + p.nvme.duration_for(crate::queue::SQE_BYTES);
        assert_eq!(fetch, expected);
        let done = p.queue_complete(qid, 0, fetch + 500_000);
        assert!(done > fetch + 500_000);
        let stats = p.queues().unwrap().stats_total();
        assert_eq!((stats.submitted, stats.completed), (1, 1));
    }

    #[test]
    fn batched_submit_of_one_matches_the_unbatched_call() {
        let mk = || {
            let mut p = CosmosPlatform::default_platform();
            p.enable_queues(crate::queue::NvmeQueueConfig { queues: 2, depth: 4 });
            p
        };
        let mut a = mk();
        let mut b = mk();
        let serial = a.queue_submit(3, 7, 1_000);
        let batched = b.queue_submit_batch(3, 7, 1, 1_000);
        assert_eq!(serial, batched);
        let done_a = a.queue_complete(serial.0, 7, serial.2 + 500);
        let done_b = b.queue_complete_batched(batched.0, 7, batched.2 + 500, true);
        assert_eq!(done_a, done_b);
        assert_eq!(b.queues().unwrap().stats_total().coalesced_doorbells, 0);
    }

    #[test]
    fn batched_submit_coalesces_doorbells_and_fetches_one_burst() {
        let mut p = CosmosPlatform::default_platform();
        p.enable_queues(crate::queue::NvmeQueueConfig { queues: 1, depth: 8 });
        let n: u16 = 4;
        let (qid, submit, fetch) = p.queue_submit_batch(0, 0, n, 2_000);
        assert_eq!(submit, 2_000, "slots were free: no stall");
        // One doorbell MMIO, then all four SQEs in a single link burst.
        let expected = submit
            + timing::MMIO_WRITE_NS
            + p.nvme.duration_for(u64::from(n) * crate::queue::SQE_BYTES);
        assert_eq!(fetch, expected);
        // Per-key completions: CQ doorbell only on the last.
        let mut last_done = 0;
        for i in 0..n {
            let done =
                p.queue_complete_batched(qid, i, fetch + 1_000 * u64::from(i) + 1_000, i + 1 == n);
            assert!(done > last_done, "completions stay monotone");
            last_done = done;
        }
        let stats = p.queues().unwrap().stats_total();
        assert_eq!((stats.submitted, stats.completed), (4, 4));
        // 3 saved SQ doorbells + 3 saved CQ-head write-backs.
        assert_eq!(stats.coalesced_doorbells, 6);
    }

    #[test]
    fn batched_submit_still_stalls_through_a_full_pair() {
        let mut p = CosmosPlatform::default_platform();
        p.enable_queues(crate::queue::NvmeQueueConfig { queues: 1, depth: 2 });
        // Fill both slots with completions far in the future.
        let (qid, _, f1) = p.queue_submit(0, 0, 0);
        p.queue_complete(qid, 0, f1 + 1_000_000);
        let (_, _, f2) = p.queue_submit(0, 1, 10);
        p.queue_complete(qid, 1, f2 + 2_000_000);
        // A batch of 2 stalls until the earliest completion frees a
        // slot; the freed slot then covers the second admission.
        let (_, submit, _) = p.queue_submit_batch(0, 2, 2, 20);
        let stats = p.queues().unwrap().stats_total();
        assert_eq!(stats.full_stalls, 1, "first admission stalled: {stats:?}");
        assert!(submit > 1_000_000, "batch admitted only after the earliest completion");
    }

    #[test]
    fn device_fault_admits_then_trips_then_rejects() {
        let mut p = CosmosPlatform::default_platform();
        assert_eq!(p.device_op_admit(), DeviceAdmission::Ok, "no plan admits for free");
        assert!(p.device_fault_stats().is_none());

        p.install_device_fault(DeviceFaultPlan { kind: DeviceFaultKind::Hang, after_ops: 2 });
        assert_eq!(p.device_op_admit(), DeviceAdmission::Ok);
        assert_eq!(p.device_op_admit(), DeviceAdmission::Ok);
        assert!(p.device_fault_active().is_none(), "not tripped yet");
        assert_eq!(p.device_op_admit(), DeviceAdmission::Rejected(DeviceFaultKind::Hang));
        assert_eq!(p.device_op_admit(), DeviceAdmission::Rejected(DeviceFaultKind::Hang));
        assert_eq!(p.device_fault_active(), Some(DeviceFaultKind::Hang));
        let s = p.device_fault_stats().unwrap();
        assert!(s.tripped);
        assert_eq!((s.ops_admitted, s.ops_rejected, s.ops_slowed), (2, 2, 0));

        p.clear_device_fault();
        assert_eq!(p.device_op_admit(), DeviceAdmission::Ok, "reset restores service");
        assert!(p.device_fault_active().is_none());
    }

    #[test]
    fn slow_device_fault_reports_the_gray_factor() {
        let mut p = CosmosPlatform::default_platform();
        p.install_device_fault(DeviceFaultPlan {
            kind: DeviceFaultKind::Slow { factor_x10: 35 },
            after_ops: 0,
        });
        assert_eq!(p.device_op_admit(), DeviceAdmission::Slow { factor_x10: 35 });
        assert_eq!(p.device_fault_active(), Some(DeviceFaultKind::Slow { factor_x10: 35 }));
        assert_eq!(p.device_fault_stats().unwrap().ops_slowed, 1);
    }

    #[test]
    fn end_to_end_block_staging_path() {
        // Flash page → DRAM staging is the executor's inner loop; check
        // the page comes back and the clock moves forward.
        let mut p = CosmosPlatform::default_platform();
        let a = PhysAddr { channel: 0, lun: 0, page: 0 };
        let done = p.flash.program_page(a, b"kv block", 0).unwrap();
        let (t, data) = p.flash.read_page(a, done).unwrap();
        let page = data.to_vec();
        let t2 = p.dram.timed_transfer(crate::dram::DramClient::FlashDma, page.len() as u64, t);
        assert!(t2 > t);
        assert_eq!(&page[..8], b"kv block");
    }
}
