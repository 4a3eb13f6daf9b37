//! The NAND flash subsystem behind two Tiger4-style controllers.
//!
//! nKV's native computational storage operates on *physical* flash
//! addresses ([`PhysAddr`]): channel, LUN (way), page. Data placement
//! across channels/LUNs enables parallel access (paper, Sec. III-B), and
//! the model reflects the three-stage structure of a NAND read:
//!
//! 1. the page array read (tR) occupies the *LUN*,
//! 2. the data transfer occupies the *channel bus*,
//! 3. the DMA into DRAM occupies the *controller* port — whose aggregate
//!    rate (~200 MB/s over both controllers) is the paper's stated
//!    bottleneck.
//!
//! Page contents live in one page table per LUN: a directory of
//! `CHUNK_PAGES`-page chunks, each allocated when its first page is
//! programmed. A slot is a 16-byte [`SharedBytes`] view of a page-sized
//! range: the pages of a data block, an index block or the manifest are
//! consecutive views of the one buffer they were programmed from
//! ([`FlashArray::program_shared`]); a page programmed on its own
//! ([`FlashArray::program_page`]: read-repair copies) and a torn program
//! are a buffer of their own. A read finds its page by indexing — no
//! hashing — and returns the view, so a reader shares the bytes instead
//! of copying them. Programming a page replaces its view and never writes
//! into a buffer, so a view handed out earlier (to a block read, the
//! block cache, a cloned array) keeps its bytes. A page keeps the CRC its
//! buffer's writer recorded ([`SharedBytes::sealed`]); a buffer of the
//! array's own carries none, so a block read through such a page
//! recomputes the CRC — the integrity rule is `nkv::sst::read_block`'s.
//! Memory follows what was programmed wherever it sits:
//! full-volume datasets (~1.1 GB) cost 16 bytes of table per page, and a
//! lone manifest page at the top of an otherwise empty LUN costs one
//! chunk.
//!
//! # Fault semantics
//!
//! Injected read faults are **explicitly transient or persistent**
//! (see [`FlashFaultKind`]); nothing heals implicitly:
//!
//! * a *transient* fault fails a bounded number of reads of the page
//!   and then clears — the recovery action is a retry;
//! * a *persistent* fault (a grown bad page) fails every read until the
//!   data is relocated and survives a [`FlashArray::reboot`] — the
//!   recovery action is relocation from a redundant copy or loss;
//! * a *correctable* fault returns correct data with an
//!   [`ECC_CORRECTION_NS`] latency penalty and increments the page's
//!   degradation counter — the recovery action is proactive read-repair
//!   before the page degrades to persistent failure.
//!
//! Random fault rates are driven by an installed [`FaultPlan`]; with no
//! plan installed every fault check is a single `Option` branch and the
//! timing behaviour is bit-for-bit the no-fault model.

use crate::bytes::SharedBytes;
use crate::faults::{
    FaultPlan, FlashFaultKind, FlashFaultState, FlashFaultStats, ECC_CORRECTION_NS,
};
use crate::server::{BandwidthLink, Server};
use crate::trace::{TraceEvent, TraceKind, TraceRing};
use crate::{timing, SimNs};
use std::collections::HashMap;

/// A physical flash location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PhysAddr {
    pub channel: u16,
    pub lun: u16,
    pub page: u32,
}

/// Geometry and timing of the flash subsystem.
#[derive(Debug, Clone)]
pub struct FlashConfig {
    /// Independent flash channels (the paper uses one DIMM behind two
    /// controllers; Cosmos+ channels are split evenly between them).
    pub channels: u16,
    /// LUNs (ways) per channel.
    pub luns_per_channel: u16,
    /// Pages per LUN.
    pub pages_per_lun: u32,
    /// Page size in bytes.
    pub page_bytes: u32,
    /// Number of Tiger4 controllers (each owns `channels / controllers`
    /// channels).
    pub controllers: u16,
    /// Aggregate DMA bandwidth over all controllers, bytes/s.
    pub aggregate_bw: f64,
    /// Page array read latency (tR).
    pub page_read_ns: SimNs,
    /// Page program latency (tPROG).
    pub page_program_ns: SimNs,
}

impl Default for FlashConfig {
    fn default() -> Self {
        Self {
            channels: 8,
            luns_per_channel: 4,
            pages_per_lun: 1 << 16,
            page_bytes: timing::FLASH_PAGE_BYTES,
            controllers: 2,
            aggregate_bw: timing::FLASH_AGGREGATE_BW,
            page_read_ns: timing::FLASH_PAGE_READ_NS,
            page_program_ns: timing::FLASH_PAGE_PROGRAM_NS,
        }
    }
}

/// Flash access errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlashError {
    /// The address is outside the configured geometry.
    OutOfRange(PhysAddr),
    /// Read of a page that was never programmed.
    Unwritten(PhysAddr),
    /// Uncorrectable ECC failure: the page is a (possibly grown) bad
    /// page. Persistent — retries do not help, relocation does.
    Uncorrectable(PhysAddr),
    /// Transient read failure: an immediate retry of the same page is
    /// expected to succeed.
    TransientRead(PhysAddr),
    /// Power was cut; every flash operation fails until
    /// [`FlashArray::reboot`].
    PowerCut,
}

impl FlashError {
    /// Whether retrying the same operation can succeed (the resilience
    /// layer's retry loop keys off this).
    pub fn is_retryable(&self) -> bool {
        matches!(self, FlashError::TransientRead(_))
    }
}

impl std::fmt::Display for FlashError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlashError::OutOfRange(a) => write!(f, "flash address out of range: {a:?}"),
            FlashError::Unwritten(a) => write!(f, "read of unwritten page: {a:?}"),
            FlashError::Uncorrectable(a) => write!(f, "uncorrectable ECC error at {a:?}"),
            FlashError::TransientRead(a) => write!(f, "transient read failure at {a:?}"),
            FlashError::PowerCut => write!(f, "flash operation after power cut"),
        }
    }
}

impl std::error::Error for FlashError {}

/// Pages per page-table chunk: 64 slots of 16 bytes, one 1 KiB
/// allocation — small enough that a device holding a few pages in each
/// LUN pays almost nothing for its tables.
const CHUNK_PAGES: usize = 64;

/// One LUN's page table: `table[page / CHUNK_PAGES]` is the chunk
/// holding the page's slot, absent until a page in it is programmed
/// (the directory itself grows to the highest chunk touched).
type LunPages = Vec<Option<Box<[Option<SharedBytes>]>>>;

/// Content of page `page` of one LUN, if it was ever programmed.
fn stored_page(table: &LunPages, page: u32) -> Option<&SharedBytes> {
    let page = page as usize;
    table.get(page / CHUNK_PAGES)?.as_ref()?[page % CHUNK_PAGES].as_ref()
}

/// The simulated flash array: storage plus timing state.
#[derive(Clone)]
pub struct FlashArray {
    cfg: FlashConfig,
    /// Per-LUN page tables, indexed like `luns`.
    pages: Vec<LunPages>,
    /// Distinct addresses programmed so far.
    programmed: u64,
    /// Per-LUN array-read occupancy.
    luns: Vec<Server>,
    /// Per-channel bus occupancy.
    channels: Vec<BandwidthLink>,
    /// Per-controller DMA occupancy (the end-to-end bottleneck).
    controllers: Vec<BandwidthLink>,
    /// Pages marked as failing with uncorrectable ECC errors.
    bad_pages: HashMap<PhysAddr, ()>,
    /// Fault-injection state; `None` (the default) costs one branch per
    /// operation and changes nothing else.
    faults: Option<FlashFaultState>,
    /// Event tracing; `None` (the default) costs one branch per
    /// operation and changes nothing else.
    trace: Option<TraceRing>,
    reads: u64,
    writes: u64,
}

impl FlashArray {
    /// Build an empty array with the given configuration.
    pub fn new(cfg: FlashConfig) -> Self {
        assert!(cfg.controllers > 0 && cfg.channels.is_multiple_of(cfg.controllers));
        let per_controller = cfg.aggregate_bw / f64::from(cfg.controllers);
        // Channel buses run faster than the controller DMA (ONFI buses do
        // ~400 MB/s); model them at 2x the controller rate so the
        // controller is the bottleneck, as the paper states.
        let per_channel = per_controller * 2.0;
        let n_luns = usize::from(cfg.channels) * usize::from(cfg.luns_per_channel);
        Self {
            luns: vec![Server::new(); n_luns],
            channels: vec![BandwidthLink::new(per_channel); usize::from(cfg.channels)],
            controllers: vec![BandwidthLink::new(per_controller); usize::from(cfg.controllers)],
            pages: vec![Vec::new(); n_luns],
            programmed: 0,
            bad_pages: HashMap::new(),
            faults: None,
            trace: None,
            reads: 0,
            writes: 0,
            cfg,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &FlashConfig {
        &self.cfg
    }

    /// Which controller owns `channel`.
    pub(crate) fn controller_of(&self, channel: u16) -> u16 {
        channel / (self.cfg.channels / self.cfg.controllers)
    }

    fn check(&self, addr: PhysAddr) -> Result<(), FlashError> {
        if addr.channel >= self.cfg.channels
            || addr.lun >= self.cfg.luns_per_channel
            || addr.page >= self.cfg.pages_per_lun
        {
            return Err(FlashError::OutOfRange(addr));
        }
        Ok(())
    }

    fn lun_index(&self, addr: PhysAddr) -> usize {
        usize::from(addr.channel) * usize::from(self.cfg.luns_per_channel) + usize::from(addr.lun)
    }

    /// `data` copied into a page buffer of its own, zero-padded.
    fn own_page(&self, data: &[u8]) -> SharedBytes {
        SharedBytes::zero_padded(data, self.cfg.page_bytes as usize)
    }

    /// Store the page-sized `page` as the content of `addr` (already
    /// range-checked), replacing any earlier view.
    fn store_page(&mut self, addr: PhysAddr, page: SharedBytes) {
        let li = self.lun_index(addr);
        let table = &mut self.pages[li];
        let (chunk, slot) = (addr.page as usize / CHUNK_PAGES, addr.page as usize % CHUNK_PAGES);
        if chunk >= table.len() {
            table.resize_with(chunk + 1, || None);
        }
        let chunk = table[chunk].get_or_insert_with(|| vec![None; CHUNK_PAGES].into_boxed_slice());
        if chunk[slot].replace(page).is_none() {
            self.programmed += 1;
        }
    }

    /// Program one page at `addr` with a copy of `data`, zero-padded to a
    /// page. Returns the completion time.
    pub fn program_page(
        &mut self,
        addr: PhysAddr,
        data: &[u8],
        now: SimNs,
    ) -> Result<SimNs, FlashError> {
        self.check(addr)?;
        let page = self.own_page(data);
        self.program_shared(addr, page, data.len(), now)
    }

    /// Program one page at `addr` with `page`, a page-sized view the
    /// array keeps instead of a copy; its first `payload` bytes are data,
    /// the rest zero padding. A power cut that strikes this program
    /// draws its torn prefix from the `payload` bytes and stores a copy
    /// of it. Returns the completion time.
    pub fn program_shared(
        &mut self,
        addr: PhysAddr,
        page: SharedBytes,
        payload: usize,
        now: SimNs,
    ) -> Result<SimNs, FlashError> {
        self.check(addr)?;
        assert_eq!(page.len(), self.cfg.page_bytes as usize, "a shared page is page-sized");
        if let Some(f) = &mut self.faults {
            if f.power_is_cut {
                f.stats.rejected_while_cut += 1;
                return Err(FlashError::PowerCut);
            }
            if let Some(left) = &mut f.writes_until_cut {
                if *left == 0 {
                    // The cut strikes mid-program: a random prefix of the
                    // data reaches the cells, the tail is lost, and no
                    // later operation succeeds until `reboot`.
                    f.power_is_cut = true;
                    f.writes_until_cut = None;
                    f.stats.torn_writes += 1;
                    let keep = f.rng.gen_u64(payload as u64 + 1) as usize;
                    let torn = self.own_page(&page[..keep]);
                    self.store_page(addr, torn);
                    self.writes += 1;
                    return Err(FlashError::PowerCut);
                }
                *left -= 1;
            }
        }
        // Transfer to the chip over channel + controller, then program.
        let ctrl = usize::from(self.controller_of(addr.channel));
        let (dma_grant, dma_done) =
            self.controllers[ctrl].transfer(now, u64::from(self.cfg.page_bytes));
        let (bus_grant, bus_done) = self.channels[usize::from(addr.channel)]
            .transfer(dma_done, u64::from(self.cfg.page_bytes));
        let li = self.lun_index(addr);
        let (prog_grant, prog_done) = self.luns[li].schedule(bus_done, self.cfg.page_program_ns);

        self.store_page(addr, page);
        self.writes += 1;
        if let Some(t) = &mut self.trace {
            // The span starts at the first resource grant and its
            // duration is the summed *service* time at the controller,
            // channel bus and LUN. Queue waits (behind earlier pages, or
            // between stages when a later stage is the bottleneck) are
            // excluded, so per-op flash busy time stays comparable to
            // wall time x resource parallelism instead of exploding
            // quadratically under load.
            t.record(TraceEvent {
                kind: TraceKind::FlashProgram { channel: addr.channel, lun: addr.lun },
                start: dma_grant,
                dur: (dma_done - dma_grant) + (bus_done - bus_grant) + (prog_done - prog_grant),
            });
        }
        Ok(prog_done)
    }

    /// Read one page; returns `(completion_time, data)`, the data as the
    /// page's stored view (clone it to keep it without a copy).
    pub fn read_page(
        &mut self,
        addr: PhysAddr,
        now: SimNs,
    ) -> Result<(SimNs, &SharedBytes), FlashError> {
        self.check(addr)?;
        if let Some(f) = &mut self.faults {
            if f.power_is_cut {
                f.stats.rejected_while_cut += 1;
                return Err(FlashError::PowerCut);
            }
        }
        if !self.bad_pages.is_empty() && self.bad_pages.contains_key(&addr) {
            return Err(FlashError::Uncorrectable(addr));
        }
        let li = self.lun_index(addr);
        let Some(page) = stored_page(&self.pages[li], addr.page) else {
            return Err(FlashError::Unwritten(addr));
        };
        // Injected-fault processing (transient, grown-bad, correctable).
        let mut ecc_penalty_ns: SimNs = 0;
        if let Some(f) = &mut self.faults {
            if let Some(left) = f.transient.get_mut(&addr) {
                *left -= 1;
                if *left == 0 {
                    f.transient.remove(&addr);
                }
                f.stats.transient_failures += 1;
                return Err(FlashError::TransientRead(addr));
            }
            if f.bad_growth_p > 0.0 && f.rng.gen_bool(f.bad_growth_p) {
                f.stats.grown_bad_pages += 1;
                self.bad_pages.insert(addr, ());
                return Err(FlashError::Uncorrectable(addr));
            }
            if f.transient_read_p > 0.0 && f.rng.gen_bool(f.transient_read_p) {
                // This read fails; sometimes the glitch lingers for one
                // more attempt before the retry succeeds.
                if f.rng.gen_bool(0.25) {
                    f.transient.insert(addr, 1);
                }
                f.stats.transient_failures += 1;
                return Err(FlashError::TransientRead(addr));
            }
            if f.sticky_correctable.contains_key(&addr)
                || (f.correctable_p > 0.0 && f.rng.gen_bool(f.correctable_p))
            {
                f.stats.correctable_hits += 1;
                *f.correctable_counts.entry(addr).or_insert(0) += 1;
                ecc_penalty_ns = ECC_CORRECTION_NS;
            }
        }
        // tR (+ any ECC correction) on the LUN, then channel bus, then
        // controller DMA.
        let (tr_grant, array_done) =
            self.luns[li].schedule(now, self.cfg.page_read_ns + ecc_penalty_ns);
        let (bus_grant, bus_done) = self.channels[usize::from(addr.channel)]
            .transfer(array_done, u64::from(self.cfg.page_bytes));
        let ctrl = usize::from(self.controller_of(addr.channel));
        let (dma_grant, dma_done) =
            self.controllers[ctrl].transfer(bus_done, u64::from(self.cfg.page_bytes));
        self.reads += 1;
        if let Some(t) = &mut self.trace {
            // dur = summed service time at LUN + channel bus + controller
            // DMA, excluding queue waits; see program_page for rationale.
            t.record(TraceEvent {
                kind: TraceKind::FlashRead { channel: addr.channel, lun: addr.lun },
                start: tr_grant,
                dur: (array_done - tr_grant) + (bus_done - bus_grant) + (dma_done - dma_grant),
            });
        }
        Ok((dma_done, page))
    }

    /// Install a fault plan: seeds the per-array RNG streams, arms the
    /// power cut and applies the explicit schedule. Replaces any
    /// previously installed state.
    pub(crate) fn install_faults(&mut self, plan: &FaultPlan) {
        let mut st = FlashFaultState::from_plan(plan);
        for s in &plan.schedule {
            match s.kind {
                FlashFaultKind::Transient { failures } => {
                    if failures > 0 {
                        st.transient.insert(s.addr, failures);
                    }
                }
                FlashFaultKind::Persistent => {
                    self.bad_pages.insert(s.addr, ());
                    st.stats.grown_bad_pages += 1;
                }
                FlashFaultKind::Correctable => {
                    st.sticky_correctable.insert(s.addr, ());
                }
            }
        }
        self.faults = Some(st);
    }

    /// Drop all fault state (pages already grown bad stay bad: that is
    /// physical damage, not injection bookkeeping).
    pub(crate) fn clear_faults(&mut self) {
        self.faults = None;
    }

    /// Every LUN, channel-bus and controller timeline (see
    /// `CosmosPlatform::advance_horizon`).
    pub(crate) fn timelines_mut(&mut self) -> impl Iterator<Item = &mut Server> {
        let links = self.channels.iter_mut().chain(&mut self.controllers);
        self.luns.iter_mut().chain(links.map(|l| &mut l.server))
    }

    /// Explicitly inject one fault at `addr`. Transient faults clear
    /// after their failure budget; persistent faults last until
    /// [`FlashArray::heal_page`]; correctable faults hit every read of
    /// the page until repaired.
    pub fn inject_fault(&mut self, addr: PhysAddr, kind: FlashFaultKind) {
        match kind {
            FlashFaultKind::Persistent => {
                self.bad_pages.insert(addr, ());
            }
            FlashFaultKind::Transient { failures } => {
                if failures > 0 {
                    self.ensure_fault_state().transient.insert(addr, failures);
                }
            }
            FlashFaultKind::Correctable => {
                self.ensure_fault_state().sticky_correctable.insert(addr, ());
            }
        }
    }

    fn ensure_fault_state(&mut self) -> &mut FlashFaultState {
        self.faults.get_or_insert_with(|| FlashFaultState::from_plan(&FaultPlan::default()))
    }

    /// Mark a page as failing with uncorrectable ECC errors. Persistent:
    /// reads fail until [`FlashArray::heal_page`]; retries and reboots
    /// do not help.
    pub fn inject_bad_page(&mut self, addr: PhysAddr) {
        self.inject_fault(addr, FlashFaultKind::Persistent);
    }

    /// Explicitly repair a persistent fault (models factory-style
    /// remapping; the resilience layer instead *relocates* the logical
    /// data and leaves the physical page bad).
    pub fn heal_page(&mut self, addr: PhysAddr) {
        self.bad_pages.remove(&addr);
    }

    /// Power restored after a cut: later operations succeed again.
    /// Transient glitch state clears with the power rail; grown bad
    /// pages, degradation counters and torn page contents persist.
    pub fn reboot(&mut self) {
        if let Some(f) = &mut self.faults {
            f.power_is_cut = false;
            f.writes_until_cut = None;
            f.transient.clear();
        }
    }

    /// True while a struck power cut keeps the array offline.
    #[cfg(test)]
    pub(crate) fn power_is_cut(&self) -> bool {
        self.faults.as_ref().is_some_and(|f| f.power_is_cut)
    }

    /// Pages whose ECC-correction count has reached `threshold`
    /// (read-repair candidates), in deterministic address order.
    pub fn degrading_pages(&self, threshold: u32) -> Vec<PhysAddr> {
        let Some(f) = &self.faults else { return Vec::new() };
        let mut v: Vec<PhysAddr> = f
            .correctable_counts
            .iter()
            .filter(|&(_, &c)| c >= threshold)
            .map(|(&a, _)| a)
            .collect();
        v.sort();
        v
    }

    /// Forget degradation history for `addr` after its data was
    /// relocated (the physical page may still be failing; it simply no
    /// longer holds live data).
    pub fn mark_repaired(&mut self, addr: PhysAddr) {
        if let Some(f) = &mut self.faults {
            f.correctable_counts.remove(&addr);
            f.sticky_correctable.remove(&addr);
            f.transient.remove(&addr);
        }
    }

    /// Fault counters since install (zeros when no plan is installed).
    pub fn fault_stats(&self) -> FlashFaultStats {
        self.faults.as_ref().map(|f| f.stats).unwrap_or_default()
    }

    /// Pages read/programmed so far.
    pub fn op_counts(&self) -> (u64, u64) {
        (self.reads, self.writes)
    }

    /// Start recording flash spans into a ring of `capacity` events.
    pub(crate) fn enable_tracing(&mut self, capacity: usize) {
        self.trace = Some(TraceRing::new(capacity));
    }

    /// Drain the buffered flash spans (oldest first; empty when tracing
    /// is disabled).
    pub(crate) fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.trace.as_mut().map(TraceRing::drain).unwrap_or_default()
    }

    /// Spans evicted from the flash ring because it was full.
    pub(crate) fn trace_dropped(&self) -> u64 {
        self.trace.as_ref().map_or(0, TraceRing::dropped)
    }

    /// Total busy time accumulated over the controller DMA stage — the
    /// paper's stated bottleneck. The SCAN occupancy claim (flash-bound,
    /// ≈100 % busy) is asserted from this, not from end-to-end runtime.
    pub fn controller_busy_ns(&self) -> SimNs {
        self.controllers.iter().map(BandwidthLink::busy_total).sum()
    }

    /// Bytes of live page data currently stored.
    pub fn stored_bytes(&self) -> u64 {
        self.programmed * u64::from(self.cfg.page_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(channel: u16, lun: u16, page: u32) -> PhysAddr {
        PhysAddr { channel, lun, page }
    }

    #[test]
    fn program_then_read_round_trips() {
        let mut f = FlashArray::new(FlashConfig::default());
        let a = addr(0, 0, 0);
        let t1 = f.program_page(a, b"hello flash", 0).unwrap();
        assert!(t1 >= timing::FLASH_PAGE_PROGRAM_NS);
        let (t2, data) = f.read_page(a, t1).unwrap();
        assert!(t2 > t1);
        assert_eq!(&data[..11], b"hello flash");
        assert_eq!(data.len(), 8192);
        assert_eq!(f.op_counts(), (1, 1));
    }

    #[test]
    fn unwritten_page_read_fails() {
        let mut f = FlashArray::new(FlashConfig::default());
        assert_eq!(f.read_page(addr(0, 0, 5), 0), Err(FlashError::Unwritten(addr(0, 0, 5))));
    }

    #[test]
    fn out_of_range_is_rejected() {
        let mut f = FlashArray::new(FlashConfig::default());
        assert!(matches!(f.program_page(addr(99, 0, 0), b"x", 0), Err(FlashError::OutOfRange(_))));
        assert!(matches!(f.read_page(addr(0, 99, 0), 0), Err(FlashError::OutOfRange(_))));
    }

    #[test]
    fn injected_ecc_fault_surfaces_and_heals() {
        let mut f = FlashArray::new(FlashConfig::default());
        let a = addr(1, 1, 7);
        f.program_page(a, b"data", 0).unwrap();
        f.inject_bad_page(a);
        assert!(matches!(f.read_page(a, 0), Err(FlashError::Uncorrectable(_))));
        f.heal_page(a);
        assert!(f.read_page(a, 0).is_ok());
    }

    #[test]
    fn parallel_channels_overlap_but_controller_serializes() {
        let mut f = FlashArray::new(FlashConfig::default());
        // Two pages on different channels of the SAME controller.
        let (a, b) = (addr(0, 0, 0), addr(1, 0, 0));
        // Two pages on channels of DIFFERENT controllers.
        let (c, d) = (addr(0, 1, 0), addr(4, 0, 0));
        for p in [a, b, c, d] {
            f.program_page(p, b"x", 0).unwrap();
        }
        let warm = 10_000_000; // after programming noise
        let (t_a, _) = f.read_page(a, warm).unwrap();
        let single = t_a - warm;

        let mut f2 = FlashArray::new(FlashConfig::default());
        for p in [a, b, c, d] {
            f2.program_page(p, b"x", 0).unwrap();
        }
        let (t1, _) = f2.read_page(c, warm).unwrap();
        let (t2, _) = f2.read_page(d, warm).unwrap();
        let both_diff_ctrl = t1.max(t2) - warm;
        // Different controllers fully overlap: same finish as one read.
        assert_eq!(both_diff_ctrl, single);

        let mut f3 = FlashArray::new(FlashConfig::default());
        for p in [a, b, c, d] {
            f3.program_page(p, b"x", 0).unwrap();
        }
        let (u1, _) = f3.read_page(a, warm).unwrap();
        let (u2, _) = f3.read_page(b, warm).unwrap();
        let both_same_ctrl = u1.max(u2) - warm;
        // Same controller: the DMA stage serializes, so it takes longer
        // than a single read but less than 2x (tR and buses overlap).
        assert!(both_same_ctrl > single);
        assert!(both_same_ctrl < 2 * single);
    }

    #[test]
    fn controller_mapping_splits_channels_evenly() {
        let f = FlashArray::new(FlashConfig::default());
        assert_eq!(f.controller_of(0), 0);
        assert_eq!(f.controller_of(3), 0);
        assert_eq!(f.controller_of(4), 1);
        assert_eq!(f.controller_of(7), 1);
    }

    #[test]
    fn transient_fault_clears_after_its_failure_budget() {
        let mut f = FlashArray::new(FlashConfig::default());
        let a = addr(2, 0, 3);
        f.program_page(a, b"payload", 0).unwrap();
        f.inject_fault(a, FlashFaultKind::Transient { failures: 2 });
        assert_eq!(f.read_page(a, 0).unwrap_err(), FlashError::TransientRead(a));
        assert_eq!(f.read_page(a, 0).unwrap_err(), FlashError::TransientRead(a));
        let (_, data) = f.read_page(a, 0).unwrap();
        assert_eq!(&data[..7], b"payload");
        assert_eq!(f.fault_stats().transient_failures, 2);
    }

    #[test]
    fn persistent_fault_survives_retries_and_reboot() {
        let mut f = FlashArray::new(FlashConfig::default());
        let a = addr(0, 2, 9);
        f.program_page(a, b"x", 0).unwrap();
        f.inject_fault(a, FlashFaultKind::Persistent);
        for _ in 0..3 {
            assert_eq!(f.read_page(a, 0).unwrap_err(), FlashError::Uncorrectable(a));
        }
        f.reboot();
        assert_eq!(f.read_page(a, 0).unwrap_err(), FlashError::Uncorrectable(a));
    }

    #[test]
    fn correctable_fault_returns_data_with_latency_penalty() {
        let mut clean = FlashArray::new(FlashConfig::default());
        let mut faulty = FlashArray::new(FlashConfig::default());
        let a = addr(3, 1, 4);
        clean.program_page(a, b"ecc", 0).unwrap();
        faulty.program_page(a, b"ecc", 0).unwrap();
        faulty.inject_fault(a, FlashFaultKind::Correctable);
        let warm = 100_000_000;
        let (t_clean, _) = clean.read_page(a, warm).unwrap();
        let (t_faulty, data) = faulty.read_page(a, warm).unwrap();
        assert_eq!(&data[..3], b"ecc");
        assert_eq!(t_faulty - t_clean, ECC_CORRECTION_NS);
        assert_eq!(faulty.fault_stats().correctable_hits, 1);
        assert_eq!(faulty.degrading_pages(1), vec![a]);
        assert!(faulty.degrading_pages(2).is_empty());
        faulty.mark_repaired(a);
        assert!(faulty.degrading_pages(1).is_empty());
    }

    #[test]
    fn power_cut_tears_the_write_and_blocks_until_reboot() {
        let mut f = FlashArray::new(FlashConfig::default());
        f.install_faults(&FaultPlan {
            seed: 11,
            power_cut_at_write: Some(2),
            ..FaultPlan::default()
        });
        f.program_page(addr(0, 0, 0), &[0xAA; 4096], 0).unwrap();
        f.program_page(addr(0, 0, 1), &[0xBB; 4096], 0).unwrap();
        // Third program is torn by the cut.
        let torn = [0xCC; 4096];
        assert_eq!(f.program_page(addr(0, 0, 2), &torn, 0).unwrap_err(), FlashError::PowerCut);
        assert!(f.power_is_cut());
        assert_eq!(f.read_page(addr(0, 0, 0), 0).unwrap_err(), FlashError::PowerCut);
        assert_eq!(f.program_page(addr(0, 0, 3), b"x", 0).unwrap_err(), FlashError::PowerCut);
        let stats = f.fault_stats();
        assert_eq!(stats.torn_writes, 1);
        assert!(stats.rejected_while_cut >= 2);

        f.reboot();
        // Pre-cut pages are intact; the torn page holds a strict prefix.
        let (_, ok) = f.read_page(addr(0, 0, 1), 0).unwrap();
        assert!(ok[..4096].iter().all(|&b| b == 0xBB));
        let (_, t) = f.read_page(addr(0, 0, 2), 0).unwrap();
        let prefix_len = t.iter().take_while(|&&b| b == 0xCC).count();
        assert!(prefix_len < 4096, "the torn write must not be complete");
        assert!(t[prefix_len..].iter().all(|&b| b == 0));
    }

    #[test]
    fn seeded_plans_are_deterministic_and_quiet_plan_is_transparent() {
        let run = |plan: Option<FaultPlan>| {
            let mut f = FlashArray::new(FlashConfig::default());
            if let Some(p) = plan {
                f.install_faults(&p);
            }
            let mut log = Vec::new();
            for i in 0..40u32 {
                let a = addr((i % 4) as u16, 0, i);
                f.program_page(a, &[i as u8; 64], 0).unwrap();
            }
            for round in 0..3 {
                for i in 0..40u32 {
                    let a = addr((i % 4) as u16, 0, i);
                    log.push((round, i, f.read_page(a, 0).map(|(t, _)| t)));
                }
            }
            log
        };
        let plan = FaultPlan {
            seed: 99,
            transient_read_p: 0.2,
            correctable_p: 0.2,
            bad_growth_p: 0.05,
            ..FaultPlan::default()
        };
        assert_eq!(run(Some(plan.clone())), run(Some(plan)));
        // A quiet plan (rates all zero) behaves exactly like no plan.
        assert_eq!(run(Some(FaultPlan::quiet(1))), run(None));
    }

    #[test]
    fn stored_bytes_tracks_unique_pages() {
        let mut f = FlashArray::new(FlashConfig::default());
        f.program_page(addr(0, 0, 0), b"a", 0).unwrap();
        f.program_page(addr(0, 0, 1), b"b", 0).unwrap();
        f.program_page(addr(0, 0, 0), b"rewrite", 0).unwrap();
        assert_eq!(f.stored_bytes(), 2 * 8192);
        // A page far up an otherwise empty LUN is one page, and its
        // neighbours in the same chunk and the chunks below it stay
        // unwritten.
        f.program_page(addr(7, 3, 40_000), b"sparse", 0).unwrap();
        assert_eq!(f.stored_bytes(), 3 * 8192);
        assert_eq!(
            f.read_page(addr(7, 3, 39_999), 0),
            Err(FlashError::Unwritten(addr(7, 3, 39_999)))
        );
        assert_eq!(f.read_page(addr(7, 3, 0), 0), Err(FlashError::Unwritten(addr(7, 3, 0))));
        assert_eq!(&f.read_page(addr(7, 3, 40_000), 0).unwrap().1[..6], b"sparse");
        let (_, rewritten) = f.read_page(addr(0, 0, 0), 0).unwrap();
        assert_eq!(&rewritten[..8], b"rewrite\0");
    }

    /// Cut the power with a torn program of `victim`.
    fn cut_power(f: &mut FlashArray, victim: PhysAddr) {
        f.install_faults(&FaultPlan { power_cut_at_write: Some(0), ..FaultPlan::default() });
        assert_eq!(f.program_page(victim, &[0xCC; 64], 0), Err(FlashError::PowerCut));
    }

    #[test]
    fn read_errors_keep_their_precedence() {
        // One address that is out of range, cut off, bad and unwritten at
        // once reports them in that order as each cause is removed.
        let a = addr(0, 0, 5);
        let mut small = FlashArray::new(FlashConfig { pages_per_lun: 4, ..FlashConfig::default() });
        let mut f = FlashArray::new(FlashConfig::default());
        for array in [&mut small, &mut f] {
            array.inject_bad_page(a);
            cut_power(array, addr(0, 0, 0));
        }
        assert_eq!(small.read_page(a, 0), Err(FlashError::OutOfRange(a)));
        assert_eq!(f.read_page(a, 0), Err(FlashError::PowerCut));
        f.reboot();
        assert_eq!(f.read_page(a, 0), Err(FlashError::Uncorrectable(a)));
        f.heal_page(a);
        assert_eq!(f.read_page(a, 0), Err(FlashError::Unwritten(a)));
        // Injected faults are rolled only for a page that exists.
        f.inject_fault(a, FlashFaultKind::Transient { failures: 1 });
        assert_eq!(f.read_page(a, 0), Err(FlashError::Unwritten(a)));
        f.program_page(a, b"now written", 0).unwrap();
        assert_eq!(f.read_page(a, 0), Err(FlashError::TransientRead(a)));
        assert_eq!(&f.read_page(a, 0).unwrap().1[..11], b"now written");
        assert_eq!(f.op_counts().0, 1, "only the successful read is counted");
    }

    #[test]
    fn a_cloned_array_is_independent() {
        let mut f = FlashArray::new(FlashConfig::default());
        let (a, b) = (addr(2, 1, 3), addr(2, 1, 4));
        let block = [addr(2, 1, 6), addr(2, 1, 7)];
        f.program_page(a, b"original", 0).unwrap();
        program_block(&mut f, &block, &[0x11; PAGE + 9], true).unwrap();
        let shared_before = f.read_page(block[1], 0).unwrap().1.clone();
        let mut copy = f.clone();
        copy.program_page(a, b"diverged", 0).unwrap();
        copy.program_page(b, b"only in the copy", 0).unwrap();
        // The copy re-programs the block's pages: as another shared block,
        // then one page on its own. The pages it shared with the original
        // are replaced, never written into.
        program_block(&mut copy, &block, &[0x22; 2 * PAGE], true).unwrap();
        copy.program_page(block[0], b"own page", 0).unwrap();
        cut_power(&mut copy, addr(2, 1, 5));
        assert_eq!(&f.read_page(a, 0).unwrap().1[..8], b"original");
        assert_eq!(f.read_page(b, 0), Err(FlashError::Unwritten(b)));
        assert!(f.read_page(block[0], 0).unwrap().1.iter().all(|&x| x == 0x11));
        let tail = f.read_page(block[1], 0).unwrap().1;
        assert!(tail[..9].iter().all(|&x| x == 0x11) && tail[9..].iter().all(|&x| x == 0));
        assert_eq!(shared_before, *tail, "a view handed out earlier keeps its bytes");
        assert_eq!(f.stored_bytes(), 3 * 8192);
        copy.reboot();
        assert_eq!(&copy.read_page(a, 0).unwrap().1[..8], b"diverged");
        assert_eq!(&copy.read_page(block[0], 0).unwrap().1[..9], b"own page\0");
        assert!(copy.read_page(block[1], 0).unwrap().1.iter().all(|&x| x == 0x22));
        // The torn page counts: a prefix of it is on the cells.
        assert_eq!(copy.stored_bytes(), 5 * 8192);
    }

    #[test]
    fn only_a_view_of_a_writer_sealed_buffer_keeps_a_recorded_crc() {
        // Every way the array stores bytes leaves a page whose buffer has
        // no recorded CRC, unless the page is a view of a buffer its
        // writer sealed. A fault that alters stored bytes must make a
        // fresh buffer, so a block read through it recomputes the CRC.
        let record = |f: &mut FlashArray, a| f.read_page(a, 0).unwrap().1.record();
        let sealed = SharedBytes::sealed(vec![0x11; 2 * PAGE], PAGE + 9, 0x5EA1);
        let [own, plain, head, tail, torn] = [0, 1, 2, 3, 4].map(|p| addr(3, 2, p));
        let mut f = FlashArray::new(FlashConfig::default());
        f.program_page(own, &[0x11; PAGE], 0).unwrap();
        f.program_shared(plain, SharedBytes::zero_padded(&[0x11; 9], PAGE), 9, 0).unwrap();
        f.program_shared(head, sealed.slice(0..PAGE), PAGE, 0).unwrap();
        f.program_shared(tail, sealed.slice(PAGE..2 * PAGE), 9, 0).unwrap();
        assert_eq!((record(&mut f, own), record(&mut f, plain)), (None, None));
        for a in [head, tail] {
            assert_eq!(record(&mut f, a), Some((PAGE as u32 + 9, 0x5EA1)), "{a:?}");
        }
        assert_eq!(f.read_page(head, 0).unwrap().1.as_ptr(), sealed.as_ptr(), "a view");
        // A cloned array re-programs the sealed pages, on their own and as
        // views of an unsealed buffer; a power cut tears a program of a
        // sealed view. The original keeps its views.
        let mut copy = f.clone();
        copy.program_page(head, &sealed[..PAGE], 0).unwrap();
        copy.program_shared(tail, SharedBytes::zero_padded(&sealed[PAGE..], PAGE), 9, 0).unwrap();
        copy.install_faults(&FaultPlan { power_cut_at_write: Some(0), ..FaultPlan::default() });
        let cut = copy.program_shared(torn, sealed.slice(0..PAGE), PAGE, 0);
        assert_eq!(cut, Err(FlashError::PowerCut));
        copy.reboot();
        for a in [head, tail, torn] {
            assert_eq!(record(&mut copy, a), None, "{a:?}");
        }
        assert!(record(&mut f, head).is_some() && record(&mut f, tail).is_some());
    }

    const PAGE: usize = 8192;

    /// Program `data` onto `pages` the way a block is programmed: as
    /// page-sized views of one zero-padded buffer (`shared`), or page by
    /// page as copied slices of `data`. Returns the last completion.
    fn program_block(
        f: &mut FlashArray,
        pages: &[PhysAddr],
        data: &[u8],
        shared: bool,
    ) -> Result<SimNs, FlashError> {
        let buf = SharedBytes::zero_padded(data, pages.len() * PAGE);
        let mut done = 0;
        for (i, &p) in pages.iter().enumerate() {
            let (start, end) = ((i * PAGE).min(data.len()), ((i + 1) * PAGE).min(data.len()));
            done = done.max(if shared {
                f.program_shared(p, buf.slice(i * PAGE..(i + 1) * PAGE), end - start, 0)?
            } else {
                f.program_page(p, &data[start..end], 0)?
            });
        }
        Ok(done)
    }

    #[test]
    fn a_shared_block_programs_like_copied_pages() {
        // Page payloads of 8192, 8192, 100 and 0 bytes. A power cut at
        // each program must draw its torn prefix from the same unpadded
        // length on both paths, so the torn pages match byte for byte.
        let data: Vec<u8> = (0..2 * PAGE + 100).map(|i| (i % 251) as u8 + 1).collect();
        let pages: Vec<PhysAddr> = (0..4).map(|i| addr(1, 2, 10 + i)).collect();
        let run = |cut: Option<u64>, shared: bool| {
            let mut f = FlashArray::new(FlashConfig::default());
            if cut.is_some() {
                f.install_faults(&FaultPlan {
                    seed: 5,
                    power_cut_at_write: cut,
                    ..FaultPlan::default()
                });
            }
            let done = program_block(&mut f, &pages, &data, shared);
            let counts = (f.op_counts(), f.stored_bytes(), f.fault_stats());
            f.reboot();
            let stored: Vec<Option<Vec<u8>>> =
                pages.iter().map(|&p| f.read_page(p, 0).ok().map(|(_, d)| d.to_vec())).collect();
            (done, counts, stored)
        };
        for cut in [None, Some(0), Some(1), Some(2), Some(3)] {
            let copied = run(cut, false);
            let (_, (_, _, faults), _) = &copied;
            assert_eq!(faults.torn_writes, u64::from(cut.is_some()));
            assert_eq!(run(cut, true), copied, "power cut at program {cut:?}");
        }
        // Pinned: the cut at the 100-byte page keeps 89 of its (nonzero)
        // payload bytes. A draw over the padded page would keep all 100.
        let (_, _, stored) = run(Some(2), true);
        let torn = stored[2].as_ref().expect("a torn page reads back");
        assert_eq!(torn.iter().take_while(|&&x| x != 0).count(), 89);
    }
}
