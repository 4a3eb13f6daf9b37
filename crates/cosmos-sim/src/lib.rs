//! Discrete-event simulator of the Cosmos+ OpenSSD platform.
//!
//! The paper's system (Fig. 2) runs on the Cosmos+ OpenSSD: a Xilinx
//! Zynq-7000 (XC7Z045) whose programmable logic implements an NVMe
//! front-end (250 MHz), two Tiger4 flash controllers and the NDP PEs
//! (100 MHz), next to the PS-side ARM Cortex-A9 cores and DRAM. None of
//! that hardware is available here, so this crate provides a
//! discrete-event model with the paper's stated bandwidths and clocks:
//!
//! * `flash` — NAND array behind two Tiger4-style controllers
//!   (~200 MB/s aggregate, the paper's stated bottleneck), with channels,
//!   LUNs, page latencies, per-channel buses and data storage;
//! * `bytes` — the immutable, reference-counted byte range
//!   ([`SharedBytes`]) that flash pages, blocks read from them and block
//!   cache entries share instead of copying;
//! * [`dram`] — the shared PS-DRAM port PEs and CPU compete for;
//! * [`timing`] — the calibrated constants (documented one by one) that
//!   anchor Fig. 7's absolute runtimes;
//! * `server` — the queueing primitives everything is built from;
//! * `platform` — the assembled device ([`CosmosPlatform`]);
//! * [`faults`] — deterministic, seeded fault injection ([`FaultPlan`]):
//!   transient/persistent/correctable flash faults, DRAM stall bursts,
//!   PE hangs and power cuts, with zero overhead when disabled; plus
//!   *device-level* fault plans ([`DeviceFaultPlan`]: whole-device
//!   hang, power cut, NVMe link loss, gray slowdown) that a multi-device
//!   cluster router treats as fleet-level fault domains;
//! * `trace` — ring-buffered typed event spans in simulated time with
//!   Chrome `trace_event` export, zero-cost when disabled;
//! * [`queue`] — paired NVMe submission/completion queues with
//!   configurable count/depth, doorbell + SQE/CQE link accounting and
//!   full-queue stall tracking, opt-in like faults and tracing;
//! * `batch` — the key-list DMA descriptor ([`KeyListDescriptor`])
//!   that lets one PE configuration serve N GET keys, amortizing the
//!   per-invocation config-register tax across a batch;
//! * `cache` — a fixed-budget segmented-LRU block cache in device
//!   DRAM ([`BlockCache`]): repeated SST block/index reads are served
//!   by a DRAM-port burst instead of flash, opt-in and zero-cost when
//!   disabled like everything else.
//!
//! Simulated time is in **nanoseconds** ([`SimNs`]); both PL clock
//! domains are exact in ns (10 ns at 100 MHz, 4 ns at 250 MHz).
//!
//! The `pub use` list below is this crate's API, plus the four `pub mod`s
//! (`dram`, `faults`, `queue`, `timing`) whose paths other crates name.
//! Everything else is private to the crate, and
//! `#![deny(unreachable_pub)]` keeps it so.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![deny(unreachable_pub)]

mod batch;
mod bytes;
mod cache;
pub mod dram;
pub mod faults;
mod flash;
mod platform;
pub mod queue;
mod server;
pub mod timing;
mod trace;

pub use batch::{KeyListDescriptor, KeyListError};
pub use bytes::SharedBytes;
pub use cache::{BlockCache, CacheStats, INDEX_BLOCK};
pub use faults::{
    DeviceAdmission, DeviceFaultKind, DeviceFaultPlan, DeviceFaultStats, FaultPlan, FlashFaultKind,
    ScheduledFault,
};
pub use flash::{FlashArray, FlashConfig, FlashError, PhysAddr};
pub use platform::{CosmosConfig, CosmosPlatform, FirmwareEra};
pub use queue::{NvmeQueueConfig, QueueStats};
pub use server::{BandwidthLink, Server};
pub use trace::{
    chrome_trace_json, chrome_trace_json_cluster, DeviceTrace, RouterSpan, RouterSpanKind,
    TraceEvent, TraceKind, TraceRing, DEVICE_PID_STRIDE, ROUTER_PID,
};

/// Simulated time in nanoseconds.
pub type SimNs = u64;

/// Convert 100 MHz PL cycles to nanoseconds.
#[cfg(test)]
pub(crate) fn pl_cycles_to_ns(cycles: u64) -> SimNs {
    cycles * 10
}

/// Convert seconds (f64) to [`SimNs`].
#[cfg(test)]
pub(crate) fn secs_to_ns(s: f64) -> SimNs {
    (s * 1e9).round() as SimNs
}

/// Convert [`SimNs`] to seconds.
pub fn ns_to_secs(ns: SimNs) -> f64 {
    ns as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_conversions() {
        assert_eq!(pl_cycles_to_ns(100_000_000), 1_000_000_000);
        assert_eq!(secs_to_ns(5.512), 5_512_000_000);
        assert!((ns_to_secs(5_512_000_000) - 5.512).abs() < 1e-12);
    }
}
