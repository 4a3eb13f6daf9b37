//! Calibrated timing constants.
//!
//! Every constant is anchored either to a number the paper states
//! explicitly or to a derivation documented here (and re-derived in
//! EXPERIMENTS.md). The two headline anchors of Fig. 7(b):
//!
//! * dataset volume = 3,775,161 papers × 80 B + 40,128,663 refs × 20 B
//!   = 1,104,586,140 B, processed in 32 KiB blocks ⇒ 33,710 blocks;
//! * \[1\]'s hardware SCAN takes 5.512 s and ours 5.530 s (+0.018 s).
//!
//! With a warm block job's register count (`ndp_swgen::job_io`, priced by
//! [`cfg_overhead_ns`]; `nkv::exec`'s tests re-derive both anchors), the
//! flash bandwidth that reproduces 5.512 s is ~201.7 MB/s — consistent
//! with the paper's "about 200 MB/s" for two Tiger4 controllers.

use crate::SimNs;

/// 100 MHz programmable-logic clock period (PEs, flash controllers).
pub const PL_CLK_NS: SimNs = 10;

/// Effective aggregate flash read bandwidth over both Tiger4 controllers,
/// bytes/second. Derived from the 5.512 s anchor (see module docs);
/// the paper states "about 200 MB/s".
pub const FLASH_AGGREGATE_BW: f64 = 201.609_6e6;
/// NAND page-array read latency (tR). Overlapped across LUNs, so it only
/// shows up on cold, single-block accesses such as GET index walks.
pub const FLASH_PAGE_READ_NS: SimNs = 70_000;
/// NAND page program latency (tPROG).
pub(crate) const FLASH_PAGE_PROGRAM_NS: SimNs = 600_000;
/// Flash page size (Cosmos+ ships 8 KiB-page NAND).
pub const FLASH_PAGE_BYTES: u32 = 8192;

/// Uncached PS→PL AXI-Lite register write, as issued by the firmware when
/// configuring a PE.
pub(crate) const MMIO_WRITE_NS: SimNs = 150;
/// Uncached PL→PS register read (round trip).
pub(crate) const MMIO_READ_NS: SimNs = 234;

/// ARM cost of parsing + validating one key-list descriptor header
/// before handing it to the PL walker (magic/count/flags checks on the
/// DMA'd page).
pub const ARM_BATCH_HEADER_PARSE_NS: SimNs = 1_000;

/// ARM software filtering cost per byte, picoseconds (≈5.4 cycles/byte
/// at 667 MHz: record parse, field extract, compare, branch, result
/// append). Deliberately above the ~4.96 ns/B aggregate flash rate so the
/// software SCAN is compute-bound — the paper's premise for hardware
/// NDP paying off on SCAN, consistent with \[1\]'s up-to-2.7x speedups.
pub const ARM_FILTER_PS_PER_BYTE: u64 = 8_150;
/// ARM per-block dispatch overhead on the software path (function call,
/// loop setup, result append bookkeeping).
pub const ARM_SW_BLOCK_OVERHEAD_NS: SimNs = 200;
/// ARM cost of one memtable/skip-list probe during GET.
pub const ARM_MEMTABLE_PROBE_NS: SimNs = 2_000;
/// ARM cost of a binary search + record parse in one 32 KiB block
/// (software GET path).
pub const ARM_BLOCK_SEARCH_NS: SimNs = 15_000;

/// Host NVMe link bandwidth (PCIe Gen2 x8 front-end of the Cosmos+,
/// conservatively clocked): result sets travel over this.
pub(crate) const NVME_LINK_BW: f64 = 1.2e9;

/// Per-operation firmware overhead of the *updated* Cosmos+ firmware the
/// paper used ("traded some performance for higher reliability", making
/// their GETs ~10 % slower than \[1\]'s). Amortized to nothing over a
/// 5.5 s SCAN, but visible on a millisecond GET.
pub const FIRMWARE_OP_OVERHEAD_NS: SimNs = 200_000;

/// ARM time (ns) of the given PE register accesses: the MMIO cost of
/// configuring and reading back one block job.
pub const fn cfg_overhead_ns(writes: u64, reads: u64) -> SimNs {
    writes * MMIO_WRITE_NS + reads * MMIO_READ_NS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn software_scan_lands_between_flash_and_double_flash() {
        // The SW SCAN overlaps flash reads with ARM filtering (double
        // buffering), so its runtime is max(flash, ARM) — and the ARM is
        // the slower stream, making the SCAN compute-bound. The implied
        // speedup must sit inside [1]'s reported band (up to 2.7x).
        let bytes: f64 = 1_104_586_140.0;
        let flash_s = bytes / FLASH_AGGREGATE_BW;
        let arm_s = bytes * ARM_FILTER_PS_PER_BYTE as f64 * 1e-12;
        assert!(arm_s > flash_s, "SW scan must be ARM-bound");
        let sw = flash_s.max(arm_s);
        let hw = 5.530;
        let speedup = sw / hw;
        assert!((1.3..2.7).contains(&speedup), "SW/HW speedup {speedup:.2} out of band");
    }
}
