//! nKV: a key-value store with native computational storage.
//!
//! This crate reimplements the nKV architecture of Vinçon et al. \[1\]
//! that the paper's generated accelerators plug into (Sec. III):
//! an LSM-tree KV-store that removes the file-system/block layers and
//! operates *directly on physical flash addresses*, with on-device format
//! parsers so GET and SCAN run in-situ — in software on the ARM cores, or
//! in hardware on the generated PEs, in the hybrid style of the paper's
//! evaluation ("the software executes a very general algorithm and
//! exploits the hardware whenever datablocks have to be filtered or
//! transformed").
//!
//! Structure:
//!
//! * [`memtable`] — the in-memory component `C0` (skip-list);
//! * [`sst`] — Sorted String Tables: 32 KiB data blocks of fixed-size
//!   records in key order, CRC-protected, plus index metadata and a
//!   bloom filter per table;
//! * [`placement`] — physical page allocation across flash
//!   channels/LUNs (nKV controls placement for parallelism and keeps
//!   LSM components apart so compaction does not block scans);
//! * [`lsm`] — levels `C1..Ck`, flush (no compaction on `C0→C1`,
//!   matching the paper), leveled compaction with tombstone purging;
//! * `plan` — the query planner: logical GET/SCAN/RANGE_SCAN/
//!   aggregate ops are *lowered* into explicit physical plans (predicate
//!   pushdown into PE registers, software residual filters, parallel PE
//!   job streams) with an `EXPLAIN` rendering;
//! * `exec` — per-table executor state (`TableExec`): PE
//!   timing servers, operator encodings, fault policy and health
//!   counters;
//! * `engine` — the plan-driven execution loops: block-parallel
//!   SCAN/GET over flash channels with software (ARM) or hardware (PE)
//!   filtering — serial or over N parallel per-channel-group job
//!   streams — returning both results and simulated device time; an
//!   aggregate is a SCAN that folds;
//! * `metrics` — op-level observability: log-bucket latency
//!   histograms, throughput counters and per-op time breakdowns
//!   attributed from the platform's trace spans;
//! * `db` — the [`NkvDb`] facade with PUT/GET/DELETE/SCAN/
//!   RANGE_SCAN over multiple tables;
//! * [`queue`] — the multi-tenant NVMe queue engine:
//!   [`NkvDb::run_queued`] keeps a window of commands in flight per
//!   client over the platform's submission/completion queues, with
//!   out-of-order completion when commands touch disjoint resources;
//! * [`recovery`] — manifest + index-block based state reconstruction
//!   after a power cycle (all accessor state lives on the device);
//! * `cluster` — fleet-level fault domains: [`NkvCluster`]
//!   shards one namespace across N simulated devices (hash or range
//!   placement), fans reads out device-parallel with deterministic
//!   merges, and runs a per-shard health FSM (`Healthy → Degraded →
//!   Quarantined → Dead → Recovered`) with router-side retry/backoff,
//!   quarantine probing and strict/available read policies.
//!
//! Records are fixed-size application structs (the tuples the PEs parse);
//! the first 8 bytes of every record are its little-endian `u64` key.
//! This *is* the nKV model: the store understands application formats
//! natively instead of wrapping them in opaque blobs.
//!
//! The `pub use` list below is this crate's API, plus the `pub mod`s whose
//! paths other crates name (the benchmark's kernels reach `memtable` and
//! `util`). Everything else is private to the crate, and
//! `#![deny(unreachable_pub)]` keeps it so.

// Panic-free decode discipline: non-test store code must surface typed
// `NkvError`s instead of unwrapping (test modules are exempt — they are
// compiled out of the non-test build this lint runs on).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![deny(unreachable_pub)]
// One `unsafe` call exists in the crate: the detection-guarded SSE4.2
// CRC-32C kernel in `util`, which carries the only `allow`.
#![deny(unsafe_code)]

mod cluster;
mod cost;
mod db;
mod engine;
mod error;
mod exec;
pub mod lsm;
pub mod memtable;
mod metrics;
pub mod placement;
mod plan;
pub mod queue;
pub mod recovery;
pub mod sst;
pub mod util;

pub use cluster::{
    ClusterConfig, ClusterGet, ClusterHealthReport, ClusterRunReport, ClusterStats,
    HealthFsmConfig, NkvCluster, ReadPolicy, ShardHealth, ShardState, ShardStatsRow, ShardStrategy,
};
pub use cost::{CostReport, PROMOTE_AFTER};
pub use db::{HealthReport, NkvDb, ScanSummary, TableConfig};
pub use engine::ParallelScanStats;
pub use error::{NkvError, NkvResult};
pub use exec::{HealthCounters, ResilienceConfig, SimReport};
pub use metrics::{Breakdown, DeviceStats, LatencyHistogram, MetricsRegistry, OpKind, OpMetrics};
pub use plan::{Backend, LogicalOp, PhysOp, PhysicalPlan, PlanOutcome, Tier};
pub use queue::{ClientScript, CommandRecord, Priority, QueueRunConfig, QueueRunReport, QueuedOp};

#[cfg(test)]
mod tests {
    /// A store moves to another thread whole. It compiles only while the
    /// bytes that flash pages, the block cache and readers share are
    /// behind an `Arc`: an `Rc` there would make both types `!Send`.
    #[test]
    fn the_device_and_the_fleet_are_send() {
        fn send<T: Send>() {}
        send::<crate::NkvDb>();
        send::<crate::NkvCluster>();
    }
}
