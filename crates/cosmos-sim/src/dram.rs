//! The PS-DRAM: the shared-port bandwidth model.
//!
//! The PEs are not directly coupled to flash; data is staged in DRAM and
//! results are collected in DRAM before the host transfer (paper,
//! Sec. IV). The single shared AXI port means memory contention is a
//! real effect — the paper's flexible Store Units exist precisely to
//! reduce that contention — so the model tracks port occupancy per
//! client class.

use crate::faults::{DramFaultState, DramFaultStats, FaultPlan};
use crate::server::BandwidthLink;
use crate::trace::{TraceEvent, TraceKind, TraceRing};
use crate::SimNs;

/// Who is using the DRAM port (for contention accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DramClient {
    /// Flash-controller DMA staging a block.
    FlashDma,
    /// A PE's Load Unit.
    PeLoad,
    /// A PE's Store Unit.
    PeStore,
    /// The ARM core (software NDP).
    Cpu,
    /// NVMe host transfers.
    Host,
    /// Block-cache hit: a DRAM-resident SST block burst into the
    /// staging buffer in place of a flash read + flash-DMA transfer.
    CacheHit,
}

/// The PS-DRAM model: a shared-port timing model.
pub struct Dram {
    pub(crate) port: BandwidthLink,
    traffic: [u64; 6],
    /// Stall-burst injection state; `None` (the default) costs one
    /// branch per transfer and changes nothing else.
    faults: Option<DramFaultState>,
    /// Event tracing; `None` (the default) costs one branch per
    /// transfer and changes nothing else.
    trace: Option<TraceRing>,
}

/// Zynq-7000 PS DDR3 effective bandwidth available to the PL masters
/// (shared HP ports; conservative figure).
pub(crate) const DRAM_PORT_BW: f64 = 1.0e9;

impl Dram {
    /// An idle DRAM port.
    pub(crate) fn new() -> Self {
        Self { port: BandwidthLink::new(DRAM_PORT_BW), traffic: [0; 6], faults: None, trace: None }
    }

    /// Account a timed transfer of `bytes` by `client` starting at `now`;
    /// returns the completion time on the shared port.
    pub fn timed_transfer(&mut self, client: DramClient, bytes: u64, now: SimNs) -> SimNs {
        self.traffic[client as usize] += bytes;
        let mut start = now;
        if let Some(f) = &mut self.faults {
            if f.stall_p > 0.0 && f.rng.gen_bool(f.stall_p) {
                // AXI stall burst: the port stops serving for a while
                // before this transfer is granted.
                let (lo, hi) = f.stall_ns;
                let stall = if hi > lo { lo + f.rng.gen_u64(hi - lo) } else { lo };
                f.stats.stalls += 1;
                f.stats.stall_ns_total += stall;
                start += stall;
            }
        }
        let (grant, finish) = self.port.transfer(start, bytes);
        if let Some(t) = &mut self.trace {
            t.record(TraceEvent {
                kind: TraceKind::DramTransfer { client, bytes, wait_ns: grant - now },
                start: now,
                dur: finish - now,
            });
        }
        finish
    }

    /// Start recording DRAM-port spans into a ring of `capacity` events.
    pub(crate) fn enable_tracing(&mut self, capacity: usize) {
        self.trace = Some(TraceRing::new(capacity));
    }

    /// Drain the buffered DRAM spans (oldest first; empty when tracing
    /// is disabled).
    pub(crate) fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.trace.as_mut().map(TraceRing::drain).unwrap_or_default()
    }

    /// Spans evicted from the DRAM ring because it was full.
    pub(crate) fn trace_dropped(&self) -> u64 {
        self.trace.as_ref().map_or(0, TraceRing::dropped)
    }

    /// Install the stall-burst portion of a fault plan.
    pub(crate) fn install_faults(&mut self, plan: &FaultPlan) {
        self.faults = Some(DramFaultState::from_plan(plan));
    }

    /// Drop stall-burst injection state.
    pub(crate) fn clear_faults(&mut self) {
        self.faults = None;
    }

    /// Stall counters since install (zeros when no plan is installed).
    pub fn fault_stats(&self) -> DramFaultStats {
        self.faults.as_ref().map(|f| f.stats).unwrap_or_default()
    }

    /// Total bytes moved by `client`.
    pub fn traffic_of(&self, client: DramClient) -> u64 {
        self.traffic[client as usize]
    }

    /// Total bytes moved over the port.
    #[cfg(test)]
    pub(crate) fn traffic_total(&self) -> u64 {
        self.traffic.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contention_serializes_on_the_port() {
        let mut d = Dram::new();
        let f1 = d.timed_transfer(DramClient::FlashDma, 32 * 1024, 0);
        let f2 = d.timed_transfer(DramClient::PeLoad, 32 * 1024, 0);
        assert!(f2 >= 2 * f1 - 1, "second transfer must queue behind the first");
    }

    #[test]
    fn stall_bursts_delay_transfers_and_are_counted() {
        let mut d = Dram::new();
        d.install_faults(&FaultPlan {
            seed: 3,
            dram_stall_p: 1.0,
            dram_stall_ns: (10_000, 20_000),
            ..FaultPlan::default()
        });
        let mut clean = Dram::new();
        let f_faulty = d.timed_transfer(DramClient::PeLoad, 4096, 0);
        let f_clean = clean.timed_transfer(DramClient::PeLoad, 4096, 0);
        let delta = f_faulty - f_clean;
        assert!((10_000..20_000).contains(&delta), "stall of {delta} ns");
        assert_eq!(d.fault_stats().stalls, 1);
        assert_eq!(d.fault_stats().stall_ns_total, delta);
        d.clear_faults();
        assert_eq!(d.fault_stats(), DramFaultStats::default());
    }

    #[test]
    fn traffic_is_accounted_per_client() {
        let mut d = Dram::new();
        d.timed_transfer(DramClient::PeStore, 100, 0);
        d.timed_transfer(DramClient::PeStore, 50, 0);
        d.timed_transfer(DramClient::Cpu, 7, 0);
        assert_eq!(d.traffic_of(DramClient::PeStore), 150);
        assert_eq!(d.traffic_of(DramClient::Cpu), 7);
        assert_eq!(d.traffic_total(), 157);
        assert_eq!(d.traffic_of(DramClient::Host), 0);
    }
}
