//! The nKV database facade.
//!
//! Ties the platform, the per-table LSM trees and the NDP execution
//! engine together behind the operations the paper evaluates: PUT,
//! DELETE, GET, SCAN (value predicates) and RANGE_SCAN (the 2-stage
//! showcase of the multi-stage filtering extension). Every operation
//! advances the device's simulated clock and returns a [`SimReport`].

use crate::engine::ParallelScanStats;
use crate::error::{NkvError, NkvResult};
use crate::exec::{HealthCounters, SimReport, TableExec};
use crate::lsm::{LsmConfig, LsmTree};
use crate::metrics::{fmt_ns, DeviceStats, MetricsRegistry, OpKind};
use crate::placement::PageAllocator;
use crate::plan::{
    tier_rule, tier_rule_line, Backend, LogicalOp, PhysOp, PhysicalPlan, PlanOutcome, Tier,
};
use crate::sst::SstMeta;
use cosmos_sim::faults::{DramFaultStats, FlashFaultStats};
use cosmos_sim::{CosmosConfig, CosmosPlatform, PhysAddr, Server, SimNs, TraceEvent};
use ndp_ir::PeConfig;
use ndp_pe::oracle::{BlockProcessor, FilterRule, OpTable};
use ndp_pe::template::PeVariant;
use ndp_pe::PeSim;
use ndp_swgen::DriverProfile;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Per-key outcomes of a batched GET, in key order: slot *i* answers
/// `keys[i]`, independently attributed (see [`NkvDb::multi_get`] and
/// DESIGN.md §11).
pub(crate) type MultiGetResults = Vec<NkvResult<Option<Vec<u8>>>>;

/// Per-table configuration.
#[derive(Clone)]
pub struct TableConfig {
    /// Elaborated PE configuration (defines the record format too).
    pub pe: PeConfig,
    /// Number of PEs attached to this table (the paper uses 1 paper-PE
    /// and 7 ref-PEs).
    pub n_pes: usize,
    /// Generated PEs (this work) or hand-crafted baseline PEs \[1\].
    pub variant: PeVariant,
    /// Whether keys are unique (one record per key). Multi-record
    /// tables (e.g. edge lists keyed by source) set this to false:
    /// bulk loads may then contain duplicate keys, GET returns the
    /// first match, and SCAN skips version reconciliation.
    pub unique_keys: bool,
    /// LSM tuning.
    pub lsm: LsmConfig,
}

impl TableConfig {
    /// Sensible defaults: one generated PE.
    pub fn new(pe: PeConfig) -> Self {
        Self {
            pe,
            n_pes: 1,
            variant: PeVariant::Generated,
            unique_keys: true,
            lsm: LsmConfig::default(),
        }
    }
}

pub(crate) struct Table {
    pub(crate) lsm: LsmTree,
    pub(crate) exec: TableExec,
    pub(crate) unique_keys: bool,
}

/// Summary of a SCAN (results plus the simulation report).
#[derive(Debug, Clone)]
pub struct ScanSummary {
    /// Matched records, reconciled to newest versions, in component
    /// recency order.
    pub records: Vec<u8>,
    /// Number of matched records.
    pub count: u64,
    pub report: SimReport,
}

/// Device-wide health summary: injected-fault counters from the
/// platform plus the resilience layer's reaction counters, aggregated
/// over every table (see [`HealthCounters`] for the per-table view).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[must_use = "a health snapshot is only useful when inspected"]
pub struct HealthReport {
    /// Flash-level fault counters (transient/correctable/grown-bad/torn).
    pub flash: FlashFaultStats,
    /// DRAM-port stall counters.
    pub dram: DramFaultStats,
    /// PE hangs injected by the platform's fault plan.
    pub pe_hangs_injected: u64,
    /// Reads retried after transient failures.
    pub read_retries: u64,
    /// Simulated time spent in retry backoff.
    pub retry_backoff_ns: SimNs,
    /// Reads abandoned after the retry budget.
    pub reads_failed: u64,
    /// Watchdog timeouts on PE DONE polls.
    pub watchdog_trips: u64,
    /// Blocks degraded to the ARM software oracle.
    pub sw_fallback_blocks: u64,
    /// PEs currently retired by the watchdog.
    pub pes_failed: u64,
    /// Degrading pages relocated by [`NkvDb::read_repair`].
    pub pages_repaired: u64,
}

impl fmt::Display for HealthReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "health: injected {} transient flash, {} ecc-corrected, {} grown-bad, \
             {} torn, {} dram stalls (+{}), {} pe hangs",
            self.flash.transient_failures,
            self.flash.correctable_hits,
            self.flash.grown_bad_pages,
            self.flash.torn_writes,
            self.dram.stalls,
            fmt_ns(self.dram.stall_ns_total),
            self.pe_hangs_injected,
        )?;
        write!(
            f,
            "        reacted {} retries (+{} backoff), {} reads failed, \
             {} watchdog trips, {} sw-fallback blocks, {} PEs retired, {} pages repaired",
            self.read_retries,
            fmt_ns(self.retry_backoff_ns),
            self.reads_failed,
            self.watchdog_trips,
            self.sw_fallback_blocks,
            self.pes_failed,
            self.pages_repaired,
        )
    }
}

/// The device-level database.
pub struct NkvDb {
    pub(crate) platform: CosmosPlatform,
    pub(crate) alloc: PageAllocator,
    pub(crate) tables: HashMap<String, Table>,
    pub(crate) clock: SimNs,
    /// Epoch of the newest persisted manifest (0 = never persisted).
    manifest_epoch: u64,
    /// The allocator's last SST id when the newest persist began (or the
    /// recovered one): no manifest slot can list an SST above it.
    persist_sst_id: u64,
    /// Pages of retired SSTs that a manifest slot may still list, with
    /// the epoch current when each retired (ascending).
    untrimmed: Vec<(u64, Vec<PhysAddr>)>,
    /// Pages relocated by read-repair since creation/recovery.
    pages_repaired: u64,
    /// Op-level metrics; `None` (the default) costs one branch per
    /// operation and changes nothing else.
    metrics: Option<MetricsRegistry>,
    /// Spans drained from the platform after each observed operation,
    /// kept for [`NkvDb::take_trace`] (empty while tracing is off).
    trace_log: Vec<TraceEvent>,
}

impl NkvDb {
    /// Create a database on a platform built from `cfg`.
    pub fn new(cfg: CosmosConfig) -> Self {
        let platform = CosmosPlatform::new(cfg);
        let alloc = PageAllocator::new(platform.flash.config());
        Self {
            platform,
            alloc,
            tables: HashMap::new(),
            clock: 0,
            manifest_epoch: 0,
            persist_sst_id: 0,
            untrimmed: Vec::new(),
            pages_repaired: 0,
            metrics: None,
            trace_log: Vec::new(),
        }
    }

    /// Create a database with default platform configuration.
    pub fn default_db() -> Self {
        Self::new(CosmosConfig::default())
    }

    /// Current simulated device time.
    pub fn clock(&self) -> SimNs {
        self.clock
    }

    /// Access the underlying platform (diagnostics, fault injection).
    pub fn platform_mut(&mut self) -> &mut CosmosPlatform {
        &mut self.platform
    }

    /// Turn on op-level metrics (latency histograms + throughput
    /// counters). Breakdowns stay zero unless tracing is also enabled.
    pub(crate) fn enable_metrics(&mut self) {
        self.metrics.get_or_insert_with(MetricsRegistry::new);
    }

    /// Turn on the full observability stack: op metrics plus device-wide
    /// event tracing (each ring holds up to `trace_capacity` spans).
    pub fn enable_observability(&mut self, trace_capacity: usize) {
        self.enable_metrics();
        self.platform.enable_tracing(trace_capacity);
    }

    /// Turn on the device-DRAM block cache with a budget of
    /// `budget_bytes`. Repeated SST block and index-page reads are then
    /// served by a DRAM-port burst instead of flash; writes invalidate
    /// through flush/compaction retirement and read-repair relocation,
    /// so results are byte-identical to the uncached device.
    pub fn enable_cache(&mut self, budget_bytes: usize) {
        self.platform.enable_cache(budget_bytes);
    }

    /// Drop the block cache (contents and statistics).
    pub fn disable_cache(&mut self) {
        self.platform.disable_cache();
    }

    /// Block-cache counters (`None` while the cache is disabled).
    pub fn cache_stats(&self) -> Option<cosmos_sim::CacheStats> {
        self.platform.cache_stats()
    }

    /// Device-wide observability snapshot: per-op metrics (empty while
    /// metrics are disabled) plus the [`HealthReport`]: injected faults
    /// and the resilience layer's reactions, aggregated over all tables.
    #[must_use = "a device-stats snapshot is only useful when inspected"]
    pub fn device_stats(&self) -> DeviceStats {
        let mut health = HealthReport {
            flash: self.platform.flash.fault_stats(),
            dram: self.platform.dram.fault_stats(),
            pe_hangs_injected: self.platform.pe_hangs(),
            pages_repaired: self.pages_repaired,
            ..HealthReport::default()
        };
        for t in self.tables.values() {
            let h = t.exec.health;
            health.read_retries += h.read_retries;
            health.retry_backoff_ns += h.retry_backoff_ns;
            health.reads_failed += h.reads_failed;
            health.watchdog_trips += h.watchdog_trips;
            health.sw_fallback_blocks += h.sw_fallback_blocks;
            health.pes_failed += t.exec.failed_pes() as u64;
        }
        DeviceStats {
            metrics: self.metrics.clone().unwrap_or_default(),
            health,
            cache: self.platform.cache_stats(),
            dropped_spans: self.platform.trace_dropped(),
        }
    }

    /// Carry `old`'s settings over to this device, rebuilt by
    /// [`NkvDb::recover`] from `old`'s flash after a power cut: each
    /// table's PE job streams, and a block cache of the same budget. The
    /// cache starts empty: its contents were DRAM.
    pub(crate) fn resume_session(&mut self, old: &NkvDb) {
        if let Some(cache) = old.platform.cache() {
            self.enable_cache(cache.budget_bytes());
        }
        for (name, t) in &mut self.tables {
            if let Some(was) = old.tables.get(name) {
                t.exec.parallel_pes = was.exec.parallel_pes;
            }
        }
    }

    /// Take every trace span buffered so far (per-op drained spans plus
    /// anything still in the platform rings), sorted by start time.
    /// Empty while tracing is disabled.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        let mut evs = std::mem::take(&mut self.trace_log);
        evs.extend(self.platform.drain_trace());
        evs.sort_by_key(|e| (e.start, e.dur));
        evs
    }

    /// Fold one finished operation into the metrics registry and move
    /// its trace spans into the session log. One branch when both
    /// metrics and tracing are off.
    pub(crate) fn observe(&mut self, kind: OpKind, latency_ns: SimNs, bytes: u64) {
        if self.metrics.is_none() && !self.platform.tracing_enabled() {
            return;
        }
        let spans = self.platform.drain_trace();
        if let Some(m) = &mut self.metrics {
            m.record(kind, latency_ns, bytes);
            m.attribute(kind, &spans);
        }
        self.trace_log.extend(spans);
    }

    /// Promise that no later job arrives before `horizon` — the device
    /// clock at a serial op's entry, a queued command's submit time — so
    /// the platform timelines and every table's PE pool forget what ends
    /// at or before it (`cosmos_sim::Server::forget_before`).
    pub(crate) fn advance_horizon(&mut self, horizon: SimNs) {
        if self.platform.advance_horizon(horizon) {
            for t in self.tables.values_mut() {
                t.exec.pe_servers.iter_mut().for_each(|s| s.forget_before(horizon));
            }
        }
    }

    /// Per-table resilience counters.
    pub fn table_health(&self, table: &str) -> NkvResult<HealthCounters> {
        let t = self.tables.get(table).ok_or_else(|| NkvError::UnknownTable(table.into()))?;
        Ok(t.exec.health)
    }

    /// Bring a table's watchdog-retired PEs back into rotation (models a
    /// PL reconfiguration of the hung accelerators).
    pub fn reset_pes(&mut self, table: &str) -> NkvResult<()> {
        let t = self.tables.get_mut(table).ok_or_else(|| NkvError::UnknownTable(table.into()))?;
        t.exec.reset_failed_pes();
        Ok(())
    }

    /// Read-repair: relocate every page whose ECC-correction count
    /// reached `threshold` before it degrades into a grown bad page.
    /// Each page's (still correctable) content is copied to a freshly
    /// allocated page, all SST metadata references are rewired, affected
    /// index blocks are rewritten, and the manifest is re-persisted so
    /// the relocation survives a power cycle. Returns the number of
    /// pages relocated.
    pub fn read_repair(&mut self, threshold: u32) -> NkvResult<u64> {
        let degrading = self.platform.flash.degrading_pages(threshold);
        if degrading.is_empty() {
            return Ok(0);
        }
        self.advance_horizon(self.clock);
        let t0 = self.clock;
        let mut moved = 0u64;
        let mut repaired_bytes = 0u64;
        let mut stale_indexes: Vec<u64> = Vec::new();
        for addr in degrading {
            let referenced = self.tables.values().any(|t| t.lsm.references_page(addr));
            if !referenced {
                // Not table data (e.g. a manifest page rewritten in place
                // on every persist): refreshing the cells is enough.
                self.platform.flash.mark_repaired(addr);
                continue;
            }
            // The page is degrading but still correctable: copy it out.
            let (t_read, data) = match self.platform.flash.read_page(addr, self.clock) {
                Ok((t, d)) => (t, d.clone()),
                Err(_) => continue, // already unreadable; repair cannot help
            };
            let new = self.alloc.alloc_block(0, 1).ok_or(NkvError::OutOfSpace)?[0];
            let t_prog = self.platform.flash.program_page(new, &data, t_read)?;
            self.clock = self.clock.max(t_prog);
            for table in self.tables.values_mut() {
                stale_indexes.extend(table.lsm.relocate_page(addr, new));
            }
            self.platform.flash.mark_repaired(addr);
            self.pages_repaired += 1;
            repaired_bytes += data.len() as u64;
            moved += 1;
        }
        // Data pages moved: the on-flash index blocks listing them are
        // stale. Rewrite them and re-point the manifest.
        if !stale_indexes.is_empty() {
            stale_indexes.sort();
            stale_indexes.dedup();
            for id in stale_indexes {
                // Ids are device-unique: exactly one table knows `id`,
                // the others answer with a no-op.
                for t in self.tables.values_mut() {
                    let (flash, now) = (&mut self.platform.flash, self.clock);
                    let done = t.lsm.rewrite_index(flash, &mut self.alloc, id, now)?;
                    self.clock = self.clock.max(done);
                }
                // Conservative: the relocated SST's cached blocks are
                // dropped even though the copied payload is identical.
                self.platform.cache_evict_sst(id);
            }
            self.persist()?;
        }
        self.observe(OpKind::ReadRepair, self.clock.saturating_sub(t0), repaired_bytes);
        Ok(moved)
    }

    /// Create a table driven by the given PE configuration.
    pub fn create_table(&mut self, name: &str, cfg: TableConfig) -> NkvResult<()> {
        let record_bytes = cfg.pe.input.tuple_bytes() as usize;
        // The key is the first 8 bytes of every record; a narrower tuple
        // would make every key extraction slice out of bounds. Validate
        // once here so the PUT/bulk-load/queue paths can never panic.
        if record_bytes < 8 {
            return Err(NkvError::Config(format!(
                "table `{name}`: records are {record_bytes} bytes but the key \
                 occupies the first 8 — widen the PE input tuple"
            )));
        }
        let (profile, stages) = match cfg.variant {
            PeVariant::Generated => (DriverProfile::Generated, cfg.pe.stages),
            PeVariant::HandCrafted => {
                // [1]'s PEs have one stage, the standard operators and no
                // aggregation unit: refuse what they cannot run.
                PeSim::check_baseline(&cfg.pe)?;
                (DriverProfile::Baseline, 1)
            }
        };
        let processor = BlockProcessor::new(&cfg.pe);
        // The device reconciles a scan on the PE's output stream, so it
        // must find the key there: input bytes 0..8, copied as one run.
        if cfg.unique_keys && processor.out_offset_of(0, 8).is_none() {
            return Err(NkvError::Config(format!(
                "table `{name}`: unique_keys needs the PE output to carry the 8-byte key \
                 as one field — map it, or set unique_keys = false"
            )));
        }
        let ops = OpTable::from_config(&cfg.pe);
        let n = cfg.n_pes.max(1);
        let full_block_payload = (cfg.pe.chunk_bytes / record_bytes as u32) * record_bytes as u32;
        let table = Table {
            unique_keys: cfg.unique_keys,
            lsm: LsmTree::new(name, record_bytes, cfg.lsm.clone()),
            exec: TableExec {
                processor,
                ops,
                eq_code: cfg.pe.op_code("eq"),
                ge_code: cfg.pe.op_code("ge"),
                lt_code: cfg.pe.op_code("lt"),
                pe_servers: vec![Server::new(); n],
                profile,
                stages,
                full_block_payload,
                chunk_bytes: cfg.pe.chunk_bytes,
                reconcile: cfg.unique_keys,
                aggregates: cfg.pe.aggregates.clone(),
                health: HealthCounters::default(),
                pe_failed: vec![false; n],
                parallel_pes: 0,
                last_parallel_scan: None,
            },
        };
        self.tables.insert(name.to_string(), table);
        Ok(())
    }

    /// Insert or update a record (key = first 8 bytes, little endian).
    /// Flushes and compacts as thresholds are crossed.
    pub fn put(&mut self, table: &str, record: Vec<u8>) -> NkvResult<()> {
        self.advance_horizon(self.clock);
        let t0 = self.clock;
        let bytes = record.len() as u64;
        let done = self.put_at(table, record, t0)?;
        self.clock = self.clock.max(done);
        self.observe(OpKind::Put, self.clock - t0, bytes);
        Ok(())
    }

    /// PUT as of simulated time `now`, returning when the maintenance it
    /// triggered finishes (no clock/metrics side effects; shared by the
    /// serial path and the queued scheduler). The memtable insert itself
    /// is free in simulated time: a PUT costs whatever flush/compaction
    /// it triggers.
    pub(crate) fn put_at(&mut self, table: &str, record: Vec<u8>, now: SimNs) -> NkvResult<SimNs> {
        let t = self.tables.get_mut(table).ok_or_else(|| NkvError::UnknownTable(table.into()))?;
        let key = t.lsm.record_key(&record)?;
        t.lsm.put(key, record);
        self.maintain_at(table, now)
    }

    /// Delete a key (tombstone).
    pub fn delete(&mut self, table: &str, key: u64) -> NkvResult<()> {
        self.advance_horizon(self.clock);
        let t = self.tables.get_mut(table).ok_or_else(|| NkvError::UnknownTable(table.into()))?;
        t.lsm.delete(key);
        self.maintain(table)
    }

    /// Run flush/compaction if thresholds are exceeded.
    fn maintain(&mut self, table: &str) -> NkvResult<()> {
        let done = self.maintain_at(table, self.clock)?;
        self.clock = self.clock.max(done);
        Ok(())
    }

    /// Flush/compact a table as of simulated time `now`, returning when
    /// the maintenance finishes (`now` if nothing was due). The queued
    /// scheduler calls this at each command's fetch time; the serial
    /// path wraps it with the device clock.
    pub(crate) fn maintain_at(&mut self, table: &str, now: SimNs) -> NkvResult<SimNs> {
        let mut end = now;
        let t = self.tables.get_mut(table).ok_or_else(|| NkvError::UnknownTable(table.into()))?;
        if t.lsm.should_flush() {
            let done = t.lsm.flush(&mut self.platform.flash, &mut self.alloc, now)?;
            end = end.max(done);
            self.observe(OpKind::Flush, done.saturating_sub(now), 0);
        }
        let mut level = 0;
        loop {
            let t =
                self.tables.get_mut(table).ok_or_else(|| NkvError::UnknownTable(table.into()))?;
            if !t.lsm.should_compact(level) {
                break;
            }
            let done = t.lsm.compact(&mut self.platform.flash, &mut self.alloc, level, now)?;
            end = end.max(done);
            self.observe(OpKind::Compaction, done.saturating_sub(now), 0);
            level += 1;
        }
        // Compaction retired its input SSTs: evict their blocks (data
        // and index) from the device cache before any read can see the
        // stale copies, and trim them. Flushes create fresh ids, so they
        // need nothing.
        let retired = self
            .tables
            .get_mut(table)
            .ok_or_else(|| NkvError::UnknownTable(table.into()))?
            .lsm
            .take_retired();
        for sst in retired {
            self.platform.cache_evict_sst(sst.id);
            self.retire(sst);
        }
        Ok(end)
    }

    /// Trim a retired SST's pages once neither manifest slot can list it:
    /// at once if it was born after the newest persist began, otherwise
    /// when [`Self::persist`] writes the epoch two past the current one.
    fn retire(&mut self, sst: SstMeta) {
        if sst.id > self.persist_sst_id {
            sst.pages().for_each(|p| self.platform.flash.trim(p));
        } else {
            self.untrimmed.push((self.manifest_epoch, sst.pages().collect()));
        }
    }

    /// Force-flush a table's memtable.
    pub fn flush(&mut self, table: &str) -> NkvResult<()> {
        self.advance_horizon(self.clock);
        let now = self.clock;
        let t = self.tables.get_mut(table).ok_or_else(|| NkvError::UnknownTable(table.into()))?;
        let done = t.lsm.flush(&mut self.platform.flash, &mut self.alloc, now)?;
        self.clock = self.clock.max(done);
        self.observe(OpKind::Flush, done.saturating_sub(now), 0);
        Ok(())
    }

    /// Bulk-load sorted records directly into a fresh `C2` SST run
    /// (the standard way to ingest a benchmark dataset; bypasses the
    /// memtable, requires strictly ascending keys).
    pub fn bulk_load<I>(&mut self, table: &str, records: I) -> NkvResult<u64>
    where
        I: IntoIterator<Item = Vec<u8>>,
    {
        self.advance_horizon(self.clock);
        let t = self.tables.get_mut(table).ok_or_else(|| NkvError::UnknownTable(table.into()))?;
        let (flash, dups) = (&mut self.platform.flash, !t.unique_keys);
        let (loaded, done) = t.lsm.bulk_load(flash, &mut self.alloc, records, dups, self.clock)?;
        self.clock = self.clock.max(done);
        Ok(loaded)
    }

    /// Point lookup: [`execute`](Self::execute) of a [`LogicalOp::Get`].
    pub fn get(
        &mut self,
        table: &str,
        key: u64,
        backend: Backend,
    ) -> NkvResult<(Option<Vec<u8>>, SimReport)> {
        self.execute(table, &LogicalOp::Get { key }, backend)?.into_point()
    }

    /// Batched point lookup: N keys served through one key-list DMA
    /// descriptor and one PE configuration (see `cosmos_sim::batch`).
    /// Returns per-key outcomes in key order — each slot independently
    /// attributed, so a fault on one key's walk is that slot's typed
    /// error while the rest of the batch completes — plus the whole
    /// batch's [`SimReport`]. A batch of one lowers to the plain point
    /// lookup, bit for bit.
    pub fn multi_get(
        &mut self,
        table: &str,
        keys: &[u64],
        backend: Backend,
    ) -> NkvResult<(MultiGetResults, SimReport)> {
        self.execute(table, &LogicalOp::MultiGet { keys: keys.to_vec() }, backend)?.into_batch()
    }

    /// Full SCAN with a chain of value predicates.
    pub fn scan(
        &mut self,
        table: &str,
        rules: &[FilterRule],
        backend: Backend,
    ) -> NkvResult<ScanSummary> {
        self.execute(table, &LogicalOp::Scan { rules: rules.to_vec() }, backend)?.into_scan()
    }

    /// RANGE_SCAN on the key: `lo <= key < hi`, lowered to a 2-stage
    /// predicate chain (the paper: "especially the 2-staged ones are
    /// interesting, since they could be used to implement RANGE_SCANs").
    pub fn range_scan(
        &mut self,
        table: &str,
        lo: u64,
        hi: u64,
        backend: Backend,
    ) -> NkvResult<ScanSummary> {
        self.execute(table, &LogicalOp::RangeScan { lo, hi }, backend)?.into_scan()
    }

    /// Aggregate SCAN pushdown: compute `agg` over `lane` of every record
    /// matching `rules`; only the 64-bit result leaves the device.
    /// Returns `(value, any_rows, report)`. On a hardware backend the
    /// table's PEs must have been generated with `aggregate = {...}`.
    ///
    /// An aggregate is a SCAN that folds: the same walk and the same
    /// version reconciliation (newest wins, tombstones drop), so COUNT
    /// equals [`scan`](Self::scan)'s count on any table. A PE reduces a
    /// block in its register only when no newer component can shadow one
    /// of its keys; the ARM reduces the others after reconciliation.
    pub fn scan_aggregate(
        &mut self,
        table: &str,
        rules: &[FilterRule],
        agg: ndp_ir::AggOp,
        lane: u32,
        backend: Backend,
    ) -> NkvResult<(u64, bool, SimReport)> {
        self.execute(
            table,
            &LogicalOp::ScanAggregate { rules: rules.to_vec(), agg, lane },
            backend,
        )?
        .into_aggregate()
    }

    /// Lower a logical operation against a table into its physical plan
    /// (without executing it).
    pub fn plan(&self, table: &str, op: &LogicalOp, backend: Backend) -> NkvResult<PhysicalPlan> {
        let t = self.tables.get(table).ok_or_else(|| NkvError::UnknownTable(table.into()))?;
        PhysicalPlan::lower(op, backend, &t.exec.caps(), table)
    }

    /// `EXPLAIN`: render the physical plan a logical operation lowers to
    /// on `tier`, using the table's operator symbols. On the adaptive
    /// tier a last line names the tier the rule picked and why.
    pub fn explain(&self, table: &str, op: &LogicalOp, tier: impl Into<Tier>) -> NkvResult<String> {
        let t = self.tables.get(table).ok_or_else(|| NkvError::UnknownTable(table.into()))?;
        let tier = tier.into();
        let backend = self.resolve_tier(table, op, tier)?;
        let plan = PhysicalPlan::lower(op, backend, &t.exec.caps(), table)?;
        let mut text = plan.explain(table, &t.exec.ops);
        // The cache line appears only when the cache is on, keeping the
        // default rendering byte-identical to the pre-cache device.
        if let Some(c) = self.platform.cache() {
            text.push_str(&format!(
                "  cache=device-DRAM segmented-LRU, budget {} KiB\n",
                c.budget_bytes() / 1024
            ));
        }
        if tier == Tier::Adaptive {
            text.push_str(&tier_rule_line(op, backend));
        }
        Ok(text)
    }

    /// Plan and execute a logical operation on `tier`, advancing the
    /// device clock and recording the op. On [`Tier::Adaptive`] it runs
    /// whichever backend [`choose_backend`](Self::choose_backend) picks.
    /// Every query — the typed wrappers above, the cluster router —
    /// enters here; the queue engine enters one level down, at
    /// `execute_at`, with its own clock.
    pub fn execute(
        &mut self,
        table: &str,
        op: &LogicalOp,
        tier: impl Into<Tier>,
    ) -> NkvResult<PlanOutcome> {
        let backend = self.resolve_tier(table, op, tier.into())?;
        self.advance_horizon(self.clock);
        let (outcome, _) = self.execute_at(table, op, backend, self.clock)?;
        let report = *outcome.report();
        let (kind, bytes) = match &outcome {
            // A lookup's report carries no result size: the payload is
            // the record itself.
            PlanOutcome::Point { record, .. } => {
                (OpKind::Get, record.as_ref().map_or(0, |r| r.len() as u64))
            }
            PlanOutcome::Batch { .. } => (OpKind::Get, report.result_bytes),
            PlanOutcome::Records { .. } | PlanOutcome::Aggregate { .. } => {
                (OpKind::Scan, report.result_bytes)
            }
        };
        self.clock += report.sim_ns;
        self.observe(kind, report.sim_ns, bytes);
        Ok(outcome)
    }

    /// The one query core: lower `op` against the table once, dispatch
    /// on the physical operator once, and run it on the engine as of
    /// simulated time `now` — no clock or metrics side effects, so the
    /// serial path and the queued scheduler share it. The second value
    /// is a batched GET's per-key absolute completion times, monotone in
    /// key order (the queue engine turns them into per-command CQEs);
    /// it is empty for every other operator.
    pub(crate) fn execute_at(
        &mut self,
        table: &str,
        op: &LogicalOp,
        backend: Backend,
        now: SimNs,
    ) -> NkvResult<(PlanOutcome, Vec<SimNs>)> {
        let t = self.tables.get_mut(table).ok_or_else(|| NkvError::UnknownTable(table.into()))?;
        let plan = PhysicalPlan::lower(op, backend, &t.exec.caps(), table)?;
        let (platform, lsm, exec) = (&mut self.platform, &t.lsm, &mut t.exec);
        match plan.op {
            PhysOp::PointLookup { .. } => {
                let (record, report) = crate::engine::run_get(platform, lsm, exec, &plan, now)?;
                Ok((PlanOutcome::Point { record, report }, Vec::new()))
            }
            PhysOp::BatchedGet { .. } => {
                let (results, dones, report) =
                    crate::engine::run_batched_get(platform, lsm, exec, &plan, now)?;
                Ok((PlanOutcome::Batch { results, report }, dones))
            }
            PhysOp::FilterScan | PhysOp::AggregateScan { .. } => {
                Ok((crate::engine::run_scan(platform, lsm, exec, &plan, now)?, Vec::new()))
            }
        }
    }

    /// The backend [`Tier::Adaptive`] runs `op` on: the tier rule, a
    /// pure function of the op and the table's capabilities. A GET or
    /// MULTI-GET runs on Software, any other op on the first of
    /// Hardware, Hybrid and Software that lowers; an op that lowers
    /// nowhere returns Software's lowering error.
    pub fn choose_backend(&self, table: &str, op: &LogicalOp) -> NkvResult<Backend> {
        let t = self.tables.get(table).ok_or_else(|| NkvError::UnknownTable(table.into()))?;
        tier_rule(op, &t.exec.caps(), table)
    }

    /// The backend `tier` runs `op` on.
    pub(crate) fn resolve_tier(
        &self,
        table: &str,
        op: &LogicalOp,
        tier: Tier,
    ) -> NkvResult<Backend> {
        match tier {
            Tier::Forced(backend) => Ok(backend),
            Tier::Adaptive => self.choose_backend(table, op),
        }
    }

    /// Set how many parallel PE job streams a table's hardware scans fan
    /// out to: the scan's blocks are partitioned by flash-channel group,
    /// one strictly serial stream per worker, merged deterministically.
    /// A new table starts at 0, the serial dispatch (one stream). Bounded
    /// by the table's PE count.
    pub fn set_parallel_pes(&mut self, table: &str, n: usize) -> NkvResult<()> {
        let t = self.tables.get_mut(table).ok_or_else(|| NkvError::UnknownTable(table.into()))?;
        let pes = t.exec.pe_servers.len().max(1);
        if n > pes {
            return Err(NkvError::Config(format!(
                "table `{table}`: parallel_pes = {n} exceeds the table's {pes} PE(s)"
            )));
        }
        t.exec.parallel_pes = n;
        Ok(())
    }

    /// Statistics of the table's most recent parallel scan phase
    /// (`None` if the last scan ran the serial dispatch).
    pub fn parallel_scan_stats(&self, table: &str) -> NkvResult<Option<ParallelScanStats>> {
        let t = self.tables.get(table).ok_or_else(|| NkvError::UnknownTable(table.into()))?;
        Ok(t.exec.last_parallel_scan.clone())
    }

    /// Persist the device manifest so [`NkvDb::recover`] can rebuild the
    /// store after a power cycle. Unflushed memtable contents are
    /// volatile by design — flush first if they must survive.
    ///
    /// Persistence is power-cut-atomic: manifests carry a monotonically
    /// increasing epoch and alternate between two flash slots, and the
    /// previous epoch's slot is untouched while the new one is written —
    /// a cut mid-persist leaves the old manifest valid (recovery picks
    /// the newest slot whose CRC verifies).
    ///
    /// Once epoch `e + 2` is written, both slots hold manifests written
    /// after every SST retired while epoch `e` was current, so those
    /// SSTs' pages are trimmed.
    pub fn persist(&mut self) -> NkvResult<()> {
        self.advance_horizon(self.clock);
        // Taken before the write: a cut can leave this manifest durable
        // although the persist fails.
        self.persist_sst_id = self.alloc.last_sst_id();
        let manifest = crate::recovery::Manifest {
            epoch: self.manifest_epoch + 1,
            tables: self
                .tables
                .iter()
                .map(|(name, t)| {
                    crate::recovery::manifest_entry(
                        name,
                        t.lsm.record_bytes(),
                        t.unique_keys,
                        t.lsm.levels(),
                    )
                })
                .collect(),
        };
        let done =
            crate::recovery::write_manifest(&mut self.platform.flash, &manifest, self.clock)?;
        self.manifest_epoch = manifest.epoch;
        self.clock = self.clock.max(done);
        let due =
            self.untrimmed.partition_point(|&(retired_at, _)| retired_at + 2 <= manifest.epoch);
        for (_, pages) in self.untrimmed.drain(..due) {
            pages.into_iter().for_each(|p| self.platform.flash.trim(p));
        }
        Ok(())
    }

    /// Rebuild a database from a flash image (after a simulated power
    /// cycle): reads the manifest, re-parses every SST index block and
    /// reconstructs trees, blooms, tombstones and allocator watermarks.
    /// `table_configs` re-supplies the PE configurations (formats live in
    /// the data catalog / specification, not in flash).
    pub fn recover(
        mut platform: CosmosPlatform,
        table_configs: Vec<(String, TableConfig)>,
    ) -> NkvResult<Self> {
        // A power cycle leaves nothing in flight, whatever timelines the
        // flash image was carried over with.
        platform.idle_timelines();
        let mut db = Self {
            alloc: PageAllocator::new(platform.flash.config()),
            platform,
            tables: HashMap::new(),
            clock: 0,
            manifest_epoch: 0,
            persist_sst_id: 0,
            untrimmed: Vec::new(),
            pages_repaired: 0,
            metrics: None,
            trace_log: Vec::new(),
        };
        let (manifest, older, t_manifest) =
            crate::recovery::read_manifest(&mut db.platform.flash, 0)?;
        db.clock = t_manifest;
        db.manifest_epoch = manifest.epoch;
        for entry in &manifest.tables {
            let (_, cfg) =
                table_configs.iter().find(|(n, _)| n == &entry.name).ok_or_else(|| {
                    NkvError::Config(format!(
                        "no table configuration supplied for recovered table `{}`",
                        entry.name
                    ))
                })?;
            if cfg.pe.input.tuple_bytes() != u64::from(entry.record_bytes) {
                return Err(NkvError::Config(format!(
                    "table `{}`: manifest records are {} bytes but the supplied \
                     format is {} bytes",
                    entry.name,
                    entry.record_bytes,
                    cfg.pe.input.tuple_bytes()
                )));
            }
            db.create_table(&entry.name, cfg.clone())?;
            let now = db.clock;
            let mut recovered = Vec::with_capacity(entry.ssts.len());
            for (level, pages) in &entry.ssts {
                recovered.push((*level, db.recover_sst(pages, now)?));
            }
            let t = db.tables.get_mut(&entry.name).ok_or_else(|| {
                NkvError::Config(format!(
                    "recovered table `{}` vanished after create_table",
                    entry.name
                ))
            })?;
            t.lsm = crate::lsm::LsmTree::from_recovered(
                &entry.name,
                entry.record_bytes as usize,
                cfg.lsm.clone(),
                recovered,
            );
        }
        // What only the older slot lists stays off the allocator's pages
        // and waits in `untrimmed` as retired under that slot's epoch, as
        // on a device that never lost power. Skipped: an SST whose index
        // does not read back (a fallback to the slot fails on it anyway)
        // and a live one whose index read-repair moved since.
        if let Some(older) = older {
            let listed: HashSet<&[PhysAddr]> =
                manifest.tables.iter().flat_map(|t| &t.ssts).map(|(_, p)| p.as_slice()).collect();
            let live: HashSet<u64> =
                db.tables.values().flat_map(|t| t.lsm.all_ssts()).map(|s| s.id).collect();
            let now = db.clock;
            for (_, pages) in older.tables.iter().flat_map(|t| &t.ssts) {
                if listed.contains(pages.as_slice()) {
                    continue;
                }
                match db.recover_sst(pages, now) {
                    Ok(meta) if !live.contains(&meta.id) => {
                        db.untrimmed.push((older.epoch, meta.pages().collect()));
                    }
                    _ => {}
                }
            }
        }
        db.persist_sst_id = db.alloc.last_sst_id();
        Ok(db)
    }

    /// Read an SST's index block at `now`; the allocator steps past its pages.
    fn recover_sst(&mut self, pages: &[PhysAddr], now: SimNs) -> NkvResult<SstMeta> {
        let (meta, t) = crate::recovery::read_index(&mut self.platform.flash, pages, now)?;
        self.clock = self.clock.max(t);
        self.alloc.mark_sst(&meta);
        Ok(meta)
    }

    /// Level occupancy of a table (diagnostics).
    pub fn level_sizes(&self, table: &str) -> NkvResult<Vec<usize>> {
        let t = self.tables.get(table).ok_or_else(|| NkvError::UnknownTable(table.into()))?;
        Ok(t.lsm.level_sizes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmos_sim::FlashError;
    use ndp_ir::elaborate;
    use ndp_spec::parse;
    use ndp_workload::spec::{paper_lanes, PAPER_PE, PAPER_REF_SPEC};
    use ndp_workload::{Paper, PaperGen, PubGraphConfig};

    fn paper_db(n_pes: usize, variant: PeVariant) -> NkvDb {
        let m = parse(PAPER_REF_SPEC).unwrap();
        let pe = elaborate(&m, PAPER_PE).unwrap();
        let mut db = NkvDb::default_db();
        let mut cfg = TableConfig::new(pe);
        cfg.n_pes = n_pes;
        cfg.variant = variant;
        db.create_table("papers", cfg).unwrap();
        db
    }

    fn encode(p: &Paper) -> Vec<u8> {
        let mut v = Vec::with_capacity(80);
        p.encode_into(&mut v);
        v
    }

    #[test]
    fn put_get_delete_lifecycle() {
        let mut db = paper_db(1, PeVariant::Generated);
        let cfg = PubGraphConfig { papers: 10, refs: 10, seed: 1 };
        let p = PaperGen::paper_at(&cfg, 3);
        db.put("papers", encode(&p)).unwrap();
        let (got, rep) = db.get("papers", p.id, Backend::Software).unwrap();
        assert_eq!(got, Some(encode(&p)));
        assert!(rep.sim_ns > 0);
        db.delete("papers", p.id).unwrap();
        let (gone, _) = db.get("papers", p.id, Backend::Software).unwrap();
        assert_eq!(gone, None);
        assert!(db.clock() > 0);
    }

    #[test]
    fn bulk_load_then_get_both_modes() {
        let mut db = paper_db(1, PeVariant::Generated);
        let cfg = PubGraphConfig { papers: 3000, refs: 3000, seed: 9 };
        let n = db.bulk_load("papers", PaperGen::new(cfg).map(|p| encode(&p))).unwrap();
        assert_eq!(n, 3000);
        let p = PaperGen::paper_at(&cfg, 1234);
        let (sw, _) = db.get("papers", p.id, Backend::Software).unwrap();
        let (hw, _) = db.get("papers", p.id, Backend::Hardware).unwrap();
        assert_eq!(sw, Some(encode(&p)));
        assert_eq!(sw, hw);
    }

    #[test]
    fn zero_copy_block_reads_equal_the_page_by_page_concatenation() {
        use crate::sst::{read_block, SstMeta};
        use cosmos_sim::FlashFaultKind;

        fn sst(db: &NkvDb) -> SstMeta {
            db.tables["papers"].lsm.levels().iter().flatten().next().unwrap().clone()
        }
        /// Read block `bi` with `read_block` and page by page, at the
        /// device clock (no job may arrive before the horizon the store's
        /// ops have advanced); they must agree. Returns whether
        /// `read_block` verified the block against its writer's recorded
        /// CRC, which only a view of the buffer of the block's first flash
        /// page may do; it recomputed otherwise.
        fn recorded(db: &mut NkvDb, bi: usize) -> bool {
            let (sst, now, flash) = (sst(db), db.clock, &mut db.platform.flash);
            let block = &sst.blocks[bi];
            let (_, data) = read_block(flash, &sst, bi, now).unwrap();
            let mut pages = Vec::new();
            for &p in &block.pages {
                let page = flash.read_page(p, now).unwrap().1;
                let take = page.len().min(block.bytes as usize - pages.len());
                pages.extend_from_slice(&page[..take]);
            }
            assert_eq!(&data[..], &pages[..], "block {bi}");
            let view = data.as_ptr() == flash.read_page(block.pages[0], now).unwrap().1.as_ptr();
            assert_eq!(data.recorded_crc().is_some(), view, "block {bi}: recorded iff a view");
            view
        }
        /// `read_block` of block `bi` under `meta` fails its CRC check.
        fn corrupt(db: &mut NkvDb, meta: &SstMeta, bi: usize) -> bool {
            matches!(
                read_block(&mut db.platform.flash, meta, bi, db.clock),
                Err(NkvError::CorruptBlock { block, .. }) if block == bi
            )
        }

        let mut db = paper_db(1, PeVariant::Generated);
        let cfg = PubGraphConfig { papers: 3000, refs: 3000, seed: 9 };
        db.bulk_load("papers", PaperGen::new(cfg).map(|p| encode(&p))).unwrap();
        let page_bytes = db.platform.flash.config().page_bytes;
        let blocks = sst(&db).blocks;
        let last = blocks.len() - 1;
        assert!(blocks[last].bytes < page_bytes * 2 && blocks[last].bytes > page_bytes);
        // A freshly programmed block, and one ending in a partial page.
        assert!(recorded(&mut db, 0), "a fresh block is a view");
        assert!(recorded(&mut db, last), "a partial last page is a view");
        // Block 1's third page relocated by read-repair.
        let degrading = blocks[1].pages[2];
        db.platform.flash.inject_fault(degrading, FlashFaultKind::Correctable);
        db.platform.flash.read_page(degrading, 0).unwrap();
        assert_eq!(db.read_repair(1).unwrap(), 1);
        assert_ne!(sst(&db).blocks[1].pages[2], degrading);
        assert!(!recorded(&mut db, 1), "a relocated page makes a copy");
        // Block 2's second page rewritten on its own, with its own bytes.
        let (rewritten, now) = (blocks[2].pages[1], db.clock);
        let bytes = db.platform.flash.read_page(rewritten, now).unwrap().1.to_vec();
        db.platform.flash.program_page(rewritten, &bytes, now).unwrap();
        assert!(!recorded(&mut db, 2), "a rewritten page makes a copy");
        assert!(recorded(&mut db, 3), "the other blocks are still views");
        // A stale CRC fails on both branches.
        for bi in [0, 2] {
            let mut stale = sst(&db);
            stale.blocks[bi].crc ^= 1;
            assert!(corrupt(&mut db, &stale, bi), "stale CRC, block {bi}");
        }
        // One record short: a sub-range of the sealed buffer recomputes.
        let mut short = sst(&db);
        short.blocks[0].bytes -= short.record_bytes as u32;
        assert!(corrupt(&mut db, &short, 0), "a sub-range of a sealed block");
        // Block 3's first page re-programmed with one bit flipped.
        let flipped = blocks[3].pages[0];
        let mut bytes = db.platform.flash.read_page(flipped, now).unwrap().1.to_vec();
        bytes[100] ^= 0x10;
        db.platform.flash.program_page(flipped, &bytes, now).unwrap();
        let meta = sst(&db);
        assert!(corrupt(&mut db, &meta, 3), "a flipped bit");
    }

    #[test]
    fn scan_filters_by_year_in_both_modes() {
        let mut db = paper_db(2, PeVariant::Generated);
        let cfg = PubGraphConfig { papers: 5000, refs: 5000, seed: 5 };
        db.bulk_load("papers", PaperGen::new(cfg).map(|p| encode(&p))).unwrap();
        let rules = [FilterRule { lane: paper_lanes::YEAR, op_code: 4, value: 2015 }];
        let sw = db.scan("papers", &rules, Backend::Software).unwrap();
        let hw = db.scan("papers", &rules, Backend::Hardware).unwrap();
        assert_eq!(sw.records, hw.records);
        assert!(sw.count > 0);
        // Oracle cross-check against the generator.
        let expected = PaperGen::new(cfg).filter(|p| p.year >= 2015).count() as u64;
        assert_eq!(sw.count, expected);
    }

    #[test]
    fn scan_sees_unflushed_and_updated_records() {
        let mut db = paper_db(1, PeVariant::Generated);
        let cfg = PubGraphConfig { papers: 100, refs: 100, seed: 2 };
        db.bulk_load("papers", PaperGen::new(cfg).map(|p| encode(&p))).unwrap();
        // Update one paper's year in place (newer version shadows).
        let mut p = PaperGen::paper_at(&cfg, 50);
        p.year = 1900;
        db.put("papers", encode(&p)).unwrap();
        let rules = [FilterRule { lane: paper_lanes::YEAR, op_code: 5 /* lt */, value: 1950 }];
        let s = db.scan("papers", &rules, Backend::Software).unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(Paper::decode(&s.records).year, 1900);
        assert_eq!(Paper::decode(&s.records).id, p.id);
    }

    #[test]
    fn range_scan_uses_two_stages() {
        let m = parse(PAPER_REF_SPEC).unwrap();
        let mut pe = elaborate(&m, PAPER_PE).unwrap();
        pe.stages = 2; // the RANGE_SCAN configuration
        let mut db = NkvDb::default_db();
        db.create_table("papers", TableConfig::new(pe)).unwrap();
        let cfg = PubGraphConfig { papers: 2000, refs: 2000, seed: 3 };
        db.bulk_load("papers", PaperGen::new(cfg).map(|p| encode(&p))).unwrap();
        let s = db.range_scan("papers", 100, 200, Backend::Hardware).unwrap();
        assert_eq!(s.count, 100);
        for rec in s.records.chunks_exact(80) {
            let p = Paper::decode(rec);
            assert!((100..200).contains(&p.id));
        }
    }

    #[test]
    fn range_scan_needs_enough_stages_in_hardware() {
        // A single-stage PE cannot run a 2-rule chain in hardware...
        let mut db = paper_db(1, PeVariant::Generated);
        let cfg = PubGraphConfig { papers: 100, refs: 100, seed: 3 };
        db.bulk_load("papers", PaperGen::new(cfg).map(|p| encode(&p))).unwrap();
        assert!(matches!(
            db.range_scan("papers", 10, 20, Backend::Hardware),
            Err(NkvError::Config(_))
        ));
        // ... but software NDP has no stage limit.
        let s = db.range_scan("papers", 10, 20, Backend::Software).unwrap();
        assert_eq!(s.count, 10);
    }

    #[test]
    fn baseline_variant_produces_identical_scan_results() {
        let mut ours = paper_db(1, PeVariant::Generated);
        let mut base = paper_db(1, PeVariant::HandCrafted);
        let cfg = PubGraphConfig { papers: 3000, refs: 3000, seed: 7 };
        for db in [&mut ours, &mut base] {
            db.bulk_load("papers", PaperGen::new(cfg).map(|p| encode(&p))).unwrap();
        }
        let rules = [FilterRule { lane: paper_lanes::VENUE, op_code: 5, value: 100 }];
        let a = ours.scan("papers", &rules, Backend::Hardware).unwrap();
        let b = base.scan("papers", &rules, Backend::Hardware).unwrap();
        assert_eq!(a.records, b.records);
        assert!(a.count > 0);
    }

    /// A hand-crafted table refuses what the PEs of [1] cannot run: a
    /// typed error at creation, never a panic later.
    #[test]
    fn baseline_tables_refuse_what_the_baseline_pes_lack() {
        let mut two_stage = elaborate(&parse(PAPER_REF_SPEC).unwrap(), PAPER_PE).unwrap();
        two_stage.stages = 2;
        let spec = |extra: &str| {
            parse(&format!(
                "/* @autogen define parser R with input = T, output = T, {extra} */
                 typedef struct {{ uint64_t k; uint32_t v; }} T;"
            ))
            .unwrap()
        };
        let custom =
            ndp_ir::elaborate_with_custom_ops(&spec("operators = { eq, magic }"), "R", &["magic"])
                .unwrap();
        let aggregate = elaborate(&spec("aggregate = { sum }"), "R").unwrap();
        for (pe, what) in [
            (two_stage, "2 filtering stages"),
            (custom, "custom operator `magic`"),
            (aggregate, "aggregation unit"),
        ] {
            let mut cfg = TableConfig::new(pe);
            cfg.variant = PeVariant::HandCrafted;
            let mut db = NkvDb::default_db();
            match db.create_table("t", cfg) {
                Err(NkvError::UnsupportedByBaseline { reason, .. }) => {
                    assert!(reason.contains(what), "{what}: {reason}")
                }
                other => panic!("{what}: expected UnsupportedByBaseline, got {other:?}"),
            }
            assert!(db.tables.is_empty(), "{what}: rejected table must not be installed");
        }
    }

    /// The adaptive tier runs exactly what `choose_backend` picks: on
    /// two identical devices, `Tier::Adaptive` and that pick forced give
    /// equal outcomes and reports. The rule sends the scan to the PE from
    /// its first run and the GET to the ARM.
    #[test]
    fn adaptive_tier_runs_the_backend_choose_backend_picks() {
        let cfg = PubGraphConfig { papers: 3000, refs: 0, seed: 7 };
        let [mut adaptive, mut forced] = [(), ()].map(|()| {
            let mut db = paper_db(1, PeVariant::Generated);
            db.bulk_load("papers", PaperGen::new(cfg).map(|p| encode(&p))).unwrap();
            db
        });
        let year = FilterRule { lane: paper_lanes::YEAR, op_code: 4, value: 2000 };
        let scan = LogicalOp::Scan { rules: vec![year] };
        let get = LogicalOp::Get { key: PaperGen::paper_at(&cfg, 17).id };
        let mut picks = Vec::new();
        for op in [vec![scan; 6], vec![get]].concat() {
            let pick = adaptive.choose_backend("papers", &op).unwrap();
            let a = adaptive.execute("papers", &op, Tier::Adaptive).unwrap();
            let f = forced.execute("papers", &op, pick).unwrap();
            assert_eq!(a, f, "{op:?} on {pick:?}");
            picks.push(pick);
        }
        assert_eq!(picks, [vec![Backend::Hardware; 6], vec![Backend::Software]].concat());
    }

    /// A hardware GET programs `lane0 == key`. On a table whose lane 0
    /// is the low `uint32_t` half of the key, that filter compares the
    /// wrong bytes: the PE used to answer `Ok(None)` for a key the ARM
    /// finds. Every entry point now refuses it at lowering, and the
    /// adaptive tier runs the GET on the ARM.
    #[test]
    fn hardware_get_needs_lane_0_to_be_the_key() {
        let spec = "/* @autogen define parser SplitPe with
                        chunksize = 32, input = Split, output = Split */
                    typedef struct { uint32_t lo; uint32_t hi; uint32_t v; } Split;";
        let pe = elaborate(&parse(spec).unwrap(), "SplitPe").unwrap();
        let mut db = NkvDb::default_db();
        db.create_table("split", TableConfig::new(pe)).unwrap();
        let record = |i: u64| [((i << 32) | 7).to_le_bytes().as_slice(), &[i as u8; 4]].concat();
        assert_eq!(db.bulk_load("split", (0..100).map(record)).unwrap(), 100);
        let key = 0x1_0000_0007;
        assert_eq!(db.get("split", key, Backend::Software).unwrap().0, Some(record(1)));
        for backend in [Backend::Hardware, Backend::Hybrid] {
            for op in [LogicalOp::Get { key }, LogicalOp::MultiGet { keys: vec![key, 7] }] {
                match db.execute("split", &op, backend) {
                    Err(NkvError::Config(msg)) => assert!(msg.contains("lane 0"), "{msg}"),
                    other => {
                        panic!("{op:?} on {backend:?}: expected a Config error, got {other:?}")
                    }
                }
            }
        }
        let get = LogicalOp::Get { key };
        assert_eq!(db.choose_backend("split", &get).unwrap(), Backend::Software);
        let adaptive = db.execute("split", &get, Tier::Adaptive).unwrap().into_point().unwrap();
        assert_eq!(adaptive.0, Some(record(1)));
    }

    /// `TableConfig::unique_keys`: on a duplicate-key table a GET returns
    /// the key's first record, on either arm. The ARM's bisection used to
    /// return whichever duplicate it landed on (`dst` 104 for key 1,
    /// where the PE returns `dst` 100).
    #[test]
    fn duplicate_key_get_returns_the_first_record_on_both_arms() {
        let pe = elaborate(&parse(PAPER_REF_SPEC).unwrap(), ndp_workload::spec::REF_PE).unwrap();
        let mut db = NkvDb::default_db();
        db.create_table("refs", TableConfig { unique_keys: false, ..TableConfig::new(pe) })
            .unwrap();
        let record = |src: u64, j: u64| {
            [src.to_le_bytes().as_slice(), &(100 * src + j).to_le_bytes(), &2020u32.to_le_bytes()]
                .concat()
        };
        let records = (0..40).flat_map(|src| (0..7).map(move |j| record(src, j)));
        assert_eq!(db.bulk_load("refs", records).unwrap(), 280);
        for src in 0..40 {
            for backend in [Backend::Software, Backend::Hardware] {
                let (got, _) = db.get("refs", src, backend).unwrap();
                assert_eq!(got, Some(record(src, 0)), "key {src} on {backend:?}");
            }
        }
    }

    /// A PE over `Rec { uint64_t key; uint32_t a; uint32_t b; }` whose
    /// output struct has the fields `out`.
    fn move_pe(out: &str) -> PeConfig {
        let text = format!(
            "/* @autogen define parser MovePe with chunksize = 32, input = Rec,
                output = Out, aggregate = {{ count }} */
             typedef struct {{ uint64_t key; uint32_t a; uint32_t b; }} Rec;
             typedef struct {{ {out} }} Out;"
        );
        elaborate(&parse(&text).unwrap(), "MovePe").unwrap()
    }

    /// A `Rec` of [`move_pe`]: `b` is the key's low half XOR 0xff.
    fn move_rec(key: u64, a: u32) -> Vec<u8> {
        [key.to_le_bytes().as_slice(), &a.to_le_bytes(), &(key as u32 ^ 0xff).to_le_bytes()]
            .concat()
    }

    /// A reconciling SCAN reads the key where the PE's transform puts it.
    /// This output moves the key behind `a` and `b`; reconciliation used
    /// to take the output's first 8 bytes (`a | b << 32`) for the key, so
    /// key 5's stale version and the deleted key 7 came back (101 records
    /// where the model has 99) on both arms. COUNT folds raw input tuples
    /// and is the control. A unique-key table whose output drops the key
    /// is refused at creation.
    #[test]
    fn reconciling_scan_reads_the_key_where_the_transform_puts_it() {
        let moved = move_pe("uint32_t a; uint32_t b; uint64_t key;");
        let a_ge_0 = [FilterRule { lane: 1, op_code: moved.op_code("ge").unwrap(), value: 0 }];
        for (n_pes, parallel_pes) in [(1, 0), (2, 2)] {
            let mut db = NkvDb::default_db();
            db.create_table("moved", TableConfig { n_pes, ..TableConfig::new(moved.clone()) })
                .unwrap();
            db.set_parallel_pes("moved", parallel_pes).unwrap();
            assert_eq!(db.bulk_load("moved", (0..100).map(|k| move_rec(k, 1))).unwrap(), 100);
            db.put("moved", move_rec(5, 2)).unwrap();
            db.delete("moved", 7).unwrap();
            // The newer versions in the memtable, then in a newer SST.
            for flushed in [false, true] {
                if flushed {
                    db.flush("moved").unwrap();
                }
                for backend in [Backend::Software, Backend::Hardware] {
                    let what = format!("{backend:?}, {parallel_pes} streams, flushed {flushed}");
                    let scan = db.scan("moved", &a_ge_0, backend).unwrap();
                    assert_eq!((scan.count, scan.records.len()), (99, 99 * 16), "{what}");
                    let out: Vec<(u64, u32)> = (scan.records.chunks_exact(16))
                        .map(|t| (u64::from_le_bytes(t[8..].try_into().unwrap()), t[0] as u32))
                        .collect();
                    assert_eq!(out.iter().filter(|&&(k, _)| k == 5).collect::<Vec<_>>(), [&(5, 2)]);
                    assert!(out.iter().all(|&(k, _)| k != 7), "{what}");
                    let count =
                        db.scan_aggregate("moved", &a_ge_0, ndp_ir::AggOp::Count, 0, backend);
                    assert_eq!(count.unwrap().0, 99, "COUNT, {what}");
                }
            }
        }
        let dropped = move_pe("uint32_t a; uint32_t b;");
        let mut db = NkvDb::default_db();
        match db.create_table("dropped", TableConfig::new(dropped.clone())) {
            Err(NkvError::Config(msg)) => assert!(msg.contains("8-byte key"), "{msg}"),
            other => panic!("expected a Config error, got {other:?}"),
        }
        db.create_table("dropped", TableConfig { unique_keys: false, ..TableConfig::new(dropped) })
            .unwrap();
    }

    /// A GET answers with the stored record on every tier. The PE's GET
    /// filter stores the *transformed* tuple, which is the record only
    /// under an identity transform: a PE whose output reorders the fields
    /// used to answer `(1, 250, 5)` for the record `(5, 1, 250)`, and one
    /// whose output projects a field away failed to decode its 12-byte
    /// tuple as a 16-byte record, on the forced tiers and on the adaptive
    /// tier alike. Lowering now
    /// refuses a hardware or hybrid GET and MULTI-GET on such a PE, and
    /// the adaptive tier answers on the ARM.
    #[test]
    fn get_answers_with_the_record_or_is_refused_on_a_transforming_pe() {
        for out in ["uint32_t a; uint32_t b; uint64_t key;", "uint64_t key; uint32_t b;"] {
            let mut db = NkvDb::default_db();
            db.create_table("t", TableConfig::new(move_pe(out))).unwrap();
            assert_eq!(db.bulk_load("t", (0..100).map(|k| move_rec(k, 1))).unwrap(), 100);
            let get = LogicalOp::Get { key: 5 };
            let multi = LogicalOp::MultiGet { keys: vec![5, 9] };
            for tier in [Tier::from(Backend::Software), Tier::Adaptive] {
                let (point, _) = db.execute("t", &get, tier).unwrap().into_point().unwrap();
                assert_eq!(point, Some(move_rec(5, 1)), "`{out}`: GET on {tier:?}");
                let (batch, _) = db.execute("t", &multi, tier).unwrap().into_batch().unwrap();
                let want = [Ok(Some(move_rec(5, 1))), Ok(Some(move_rec(9, 1)))];
                assert_eq!(batch, want, "`{out}`: MULTI-GET on {tier:?}");
            }
            for backend in [Backend::Hardware, Backend::Hybrid] {
                for op in [&get, &multi] {
                    match db.execute("t", op, backend) {
                        Err(NkvError::Config(msg)) => assert!(msg.contains("identity"), "{msg}"),
                        other => panic!("`{out}`: {op:?} on {backend:?}: got {other:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn unknown_table_and_bad_record_are_errors() {
        let mut db = paper_db(1, PeVariant::Generated);
        assert!(matches!(db.get("nope", 1, Backend::Software), Err(NkvError::UnknownTable(_))));
        assert!(matches!(
            db.put("papers", vec![0u8; 10]),
            Err(NkvError::RecordSizeMismatch { expected: 80, got: 10, .. })
        ));
    }

    #[test]
    fn narrow_record_table_is_rejected_at_creation() {
        // Regression: a tuple narrower than the 8-byte key used to slip
        // through table creation and panic the first key extraction
        // (`record[..8]`) on the PUT and queued-PUT paths. It must be a
        // typed configuration error instead.
        let spec = "
/* @autogen define parser TinyPe with
   chunksize = 32, input = Tiny, output = Tiny */
typedef struct {
    uint32_t tag;
} Tiny;
";
        let m = parse(spec).unwrap();
        let pe = elaborate(&m, "TinyPe").unwrap();
        assert_eq!(pe.input.tuple_bytes(), 4);
        let mut db = NkvDb::default_db();
        match db.create_table("tiny", TableConfig::new(pe)) {
            Err(NkvError::Config(msg)) => {
                assert!(msg.contains("8"), "message names the key width: {msg}")
            }
            other => panic!("expected a Config error, got {other:?}"),
        }
        assert!(db.tables.is_empty(), "rejected table must not be installed");
    }

    #[test]
    fn cache_keeps_results_identical_and_counts_hits() {
        let cfg = PubGraphConfig { papers: 1500, refs: 1500, seed: 21 };
        let rules = [FilterRule { lane: paper_lanes::YEAR, op_code: 4, value: 2010 }];
        let run = |cache: bool| {
            let mut db = paper_db(2, PeVariant::Generated);
            if cache {
                db.enable_cache(8 << 20);
            }
            db.bulk_load("papers", PaperGen::new(cfg).map(|p| encode(&p))).unwrap();
            let cold = db.scan("papers", &rules, Backend::Hardware).unwrap();
            let warm = db.scan("papers", &rules, Backend::Hardware).unwrap();
            assert_eq!(cold.records, warm.records);
            (cold.records, warm.report.sim_ns, db.cache_stats())
        };
        let (plain, t_plain, no_stats) = run(false);
        let (cached, t_cached, stats) = run(true);
        assert_eq!(plain, cached, "cached results must be byte-identical");
        assert_eq!(no_stats, None);
        let s = stats.expect("cache enabled");
        assert_eq!(s.hits + s.misses, s.lookups, "counter conservation");
        assert!(s.hits > 0, "second scan must hit: {s:?}");
        assert!(
            t_cached < t_plain,
            "warm scan from DRAM ({t_cached} ns) must beat flash ({t_plain} ns)"
        );
    }

    #[test]
    fn compaction_evicts_retired_ssts_from_the_cache() {
        let m = parse(PAPER_REF_SPEC).unwrap();
        let pe = elaborate(&m, PAPER_PE).unwrap();
        let mut db = NkvDb::default_db();
        db.enable_cache(8 << 20);
        let mut cfg = TableConfig::new(pe);
        cfg.lsm.memtable_bytes = 8 * 1024; // tiny, to force flush/compaction
        cfg.lsm.c1_sst_limit = 2;
        db.create_table("papers", cfg).unwrap();
        let gen_cfg = PubGraphConfig { papers: 1200, refs: 1200, seed: 17 };
        let rules = [FilterRule { lane: paper_lanes::YEAR, op_code: 4, value: 1900 }];
        let mut model = std::collections::BTreeMap::new();
        for (i, p) in PaperGen::new(gen_cfg).enumerate() {
            db.put("papers", encode(&p)).unwrap();
            model.insert(p.id, encode(&p));
            if i % 300 == 299 {
                // Scans interleaved with the PUT churn populate the
                // cache while compactions retire SSTs under it.
                let s = db.scan("papers", &rules, Backend::Software).unwrap();
                assert_eq!(s.count as usize, model.len(), "cache must never serve stale blocks");
            }
        }
        let s = db.cache_stats().expect("cache enabled");
        assert!(s.invalidations > 0, "compaction churn must invalidate: {s:?}");
    }

    #[test]
    fn without_a_persist_flash_holds_bytes_only_for_live_ssts() {
        // No manifest was ever written, so a compaction trims its inputs
        // at once: over ten compaction cycles the pages holding bytes stay
        // within twice the live SSTs' plus one flushed run, while the
        // programmed bytes (trimmed pages keep their charge) grow.
        let m = parse(PAPER_REF_SPEC).unwrap();
        let mut cfg = TableConfig::new(elaborate(&m, PAPER_PE).unwrap());
        cfg.lsm.memtable_bytes = 8 * 1024;
        cfg.lsm.c1_sst_limit = 2;
        let mut db = NkvDb::default_db();
        db.create_table("papers", cfg).unwrap();
        db.enable_metrics();
        let papers: Vec<Paper> =
            PaperGen::new(PubGraphConfig { papers: 300, refs: 300, seed: 5 }).collect();
        let compactions = |db: &NkvDb| db.device_stats().metrics.op(OpKind::Compaction).ops;
        let (mut c1_run, mut stored, mut version) = (0, 0, 0);
        let mut seen: Vec<(u64, PhysAddr)> = Vec::new();
        while compactions(&db) < 10 {
            for p in &papers {
                let mut p = p.clone();
                p.n_cits = version;
                db.put("papers", encode(&p)).unwrap();
            }
            version += 1;
            let ssts = db.tables["papers"].lsm.all_ssts();
            let live: u64 = ssts.iter().map(|s| s.pages().count() as u64).sum();
            for sst in ssts.iter().filter(|s| s.level == 1) {
                c1_run = c1_run.max(sst.pages().count() as u64);
            }
            seen.extend(ssts.iter().filter_map(|s| Some((s.id, s.pages().next()?))));
            let flash = &db.platform.flash;
            let held = flash.held_pages();
            assert!(held <= 2 * live + c1_run, "round {version}: {held} pages held, {live} live");
            assert!(flash.stored_bytes() > stored, "round {version}: programmed bytes must grow");
            stored = flash.stored_bytes();
        }
        let live: Vec<u64> = db.tables["papers"].lsm.all_ssts().iter().map(|s| s.id).collect();
        let retired: Vec<PhysAddr> =
            seen.iter().filter(|(id, _)| !live.contains(id)).map(|&(_, p)| p).collect();
        assert!(!retired.is_empty());
        for p in retired {
            assert_eq!(db.platform.flash.read_page(p, db.clock), Err(FlashError::Trimmed(p)));
        }
    }

    #[test]
    fn a_recovered_device_trims_what_only_the_older_slot_lists_at_its_next_persist() {
        // Epoch 1 lists three C1 SSTs that a compaction retires before
        // epoch 2. After a power cycle the recovered device trims them at
        // its first persist, as the device that wrote them would have.
        let m = parse(PAPER_REF_SPEC).unwrap();
        let mut cfg = TableConfig::new(elaborate(&m, PAPER_PE).unwrap());
        cfg.lsm.memtable_bytes = 8 * 1024;
        cfg.lsm.c1_sst_limit = 2;
        let mut db = NkvDb::default_db();
        db.create_table("papers", cfg.clone()).unwrap();
        let papers: Vec<Paper> =
            PaperGen::new(PubGraphConfig { papers: 120, refs: 0, seed: 5 }).collect();
        for round in papers.chunks(40) {
            round.iter().for_each(|p| db.put("papers", encode(p)).unwrap());
            db.flush("papers").unwrap();
        }
        db.persist().unwrap();
        let ssts = db.tables["papers"].lsm.all_ssts();
        let epoch_1: Vec<PhysAddr> = ssts.iter().flat_map(|s| s.pages()).collect();
        db.put("papers", encode(&papers[0])).unwrap(); // compacts the three
        db.flush("papers").unwrap();
        db.persist().unwrap();
        let mut fresh = CosmosPlatform::default_platform();
        fresh.flash = db.platform.flash.clone();
        let mut rec = NkvDb::recover(fresh, vec![("papers".into(), cfg)]).unwrap();
        for _ in 0..2 {
            rec.persist().unwrap();
            for &p in &epoch_1 {
                let read = rec.platform.flash.read_page(p, rec.clock).err();
                assert_eq!(read, Some(FlashError::Trimmed(p)));
            }
        }
    }

    #[test]
    fn invalid_lane_is_rejected() {
        let mut db = paper_db(1, PeVariant::Generated);
        let rules = [FilterRule { lane: 99, op_code: 2, value: 0 }];
        assert!(matches!(
            db.scan("papers", &rules, Backend::Software),
            Err(NkvError::InvalidLane { lane: 99, .. })
        ));
    }

    #[test]
    fn many_puts_trigger_flush_and_compaction() {
        let m = parse(PAPER_REF_SPEC).unwrap();
        let pe = elaborate(&m, PAPER_PE).unwrap();
        let mut db = NkvDb::default_db();
        let mut cfg = TableConfig::new(pe);
        cfg.lsm.memtable_bytes = 8 * 1024; // tiny, to force activity
        cfg.lsm.c1_sst_limit = 2;
        db.create_table("papers", cfg).unwrap();
        let gen_cfg = PubGraphConfig { papers: 2000, refs: 2000, seed: 4 };
        for p in PaperGen::new(gen_cfg) {
            db.put("papers", encode(&p)).unwrap();
        }
        let sizes = db.level_sizes("papers").unwrap();
        assert!(sizes[1] > 0, "compaction should have populated C2: {sizes:?}");
        // All records remain reachable.
        let p = PaperGen::paper_at(&gen_cfg, 999);
        let (got, _) = db.get("papers", p.id, Backend::Software).unwrap();
        assert_eq!(got, Some(encode(&p)));
    }

    #[test]
    fn observability_records_metrics_breakdowns_and_traces() {
        let mut db = paper_db(1, PeVariant::Generated);
        db.enable_observability(1 << 16);
        let cfg = PubGraphConfig { papers: 2000, refs: 2000, seed: 6 };
        db.bulk_load("papers", PaperGen::new(cfg).map(|p| encode(&p))).unwrap();
        let p = PaperGen::paper_at(&cfg, 10);
        db.get("papers", p.id, Backend::Hardware).unwrap();
        let rules = [FilterRule { lane: paper_lanes::YEAR, op_code: 4, value: 2010 }];
        db.scan("papers", &rules, Backend::Hardware).unwrap();

        let stats = db.device_stats();
        let get = stats.metrics.op(crate::metrics::OpKind::Get);
        let scan = stats.metrics.op(crate::metrics::OpKind::Scan);
        assert_eq!(get.ops, 1);
        assert_eq!(get.bytes, 80);
        assert!(get.hist.max() > 0);
        assert_eq!(scan.ops, 1);
        assert!(scan.breakdown.flash_ns > 0, "SCAN reads flash");
        assert!(scan.breakdown.pe_ns > 0, "HW SCAN runs PE jobs");
        // Fig. 7(a)'s explanation, measured: a GET spends more time on
        // PE config registers than moving its 80-byte result.
        assert!(
            get.breakdown.cfg_ns >= get.breakdown.nvme_ns,
            "cfg {} < data {}",
            get.breakdown.cfg_ns,
            get.breakdown.nvme_ns
        );

        let trace = db.take_trace();
        assert!(!trace.is_empty());
        assert!(trace.windows(2).all(|w| w[0].start <= w[1].start), "sorted by start");
        assert!(db.take_trace().is_empty(), "take_trace drains");

        let text = format!("{}", db.device_stats());
        assert!(text.contains("GET"), "{text}");
        assert!(text.contains("SCAN"), "{text}");
        assert!(text.contains("health:"), "{text}");
    }

    /// Satellite regression: a trace ring that overflows must count the
    /// evicted spans (surfaced as `DeviceStats::dropped_spans`), never
    /// panic, and never lose the counter across `take_trace` drains.
    #[test]
    fn trace_ring_overflow_is_counted_not_panicked() {
        let mut db = paper_db(1, PeVariant::Generated);
        db.enable_observability(4); // tiny rings: every op overflows
        let cfg = PubGraphConfig { papers: 2000, refs: 2000, seed: 6 };
        db.bulk_load("papers", PaperGen::new(cfg).map(|p| encode(&p))).unwrap();
        let rules = [FilterRule { lane: paper_lanes::YEAR, op_code: 4, value: 2010 }];
        db.scan("papers", &rules, Backend::Hardware).unwrap();
        let stats = db.device_stats();
        assert!(stats.dropped_spans > 0, "tiny ring must report drops");
        let text = format!("{stats}");
        assert!(text.contains("trace: dropped_spans="), "{text}");
        // Draining the rings must not reset the cumulative counter.
        let _ = db.take_trace();
        assert!(db.device_stats().dropped_spans >= stats.dropped_spans);
        // A roomy ring on the same workload reports zero and stays
        // silent in the rendering.
        let mut roomy = paper_db(1, PeVariant::Generated);
        roomy.enable_observability(1 << 20);
        roomy.bulk_load("papers", PaperGen::new(cfg).map(|p| encode(&p))).unwrap();
        roomy.scan("papers", &rules, Backend::Hardware).unwrap();
        let clean = roomy.device_stats();
        assert_eq!(clean.dropped_spans, 0);
        assert!(!format!("{clean}").contains("dropped_spans"));
    }

    #[test]
    fn observability_is_timing_invisible() {
        // The zero-cost idiom, asserted end to end: identical ops on an
        // observed and an unobserved database take identical simulated
        // time and return identical results.
        let cfg = PubGraphConfig { papers: 1500, refs: 1500, seed: 12 };
        let rules = [FilterRule { lane: paper_lanes::YEAR, op_code: 4, value: 2005 }];
        let run = |observe: bool| {
            let mut db = paper_db(2, PeVariant::Generated);
            if observe {
                db.enable_observability(4096);
            }
            db.bulk_load("papers", PaperGen::new(cfg).map(|p| encode(&p))).unwrap();
            let s = db.scan("papers", &rules, Backend::Hardware).unwrap();
            (s.records, s.report.sim_ns, db.clock())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn puts_record_flush_and_compaction_metrics() {
        let m = parse(PAPER_REF_SPEC).unwrap();
        let pe = elaborate(&m, PAPER_PE).unwrap();
        let mut db = NkvDb::default_db();
        db.enable_metrics();
        let mut cfg = TableConfig::new(pe);
        cfg.lsm.memtable_bytes = 8 * 1024;
        cfg.lsm.c1_sst_limit = 2;
        db.create_table("papers", cfg).unwrap();
        for p in PaperGen::new(PubGraphConfig { papers: 1500, refs: 1500, seed: 4 }) {
            db.put("papers", encode(&p)).unwrap();
        }
        let stats = db.device_stats();
        use crate::metrics::OpKind;
        assert_eq!(stats.metrics.op(OpKind::Put).ops, 1500);
        assert_eq!(stats.metrics.op(OpKind::Put).bytes, 1500 * 80);
        assert!(stats.metrics.op(OpKind::Flush).ops > 0, "tiny memtable must flush");
        assert!(stats.metrics.op(OpKind::Compaction).ops > 0, "c1 limit must compact");
        // Breakdowns stay zero without tracing.
        assert_eq!(stats.metrics.op(OpKind::Flush).breakdown, crate::metrics::Breakdown::default());
    }

    #[test]
    fn simulated_clock_advances_monotonically() {
        let mut db = paper_db(1, PeVariant::Generated);
        let cfg = PubGraphConfig { papers: 500, refs: 500, seed: 8 };
        db.bulk_load("papers", PaperGen::new(cfg).map(|p| encode(&p))).unwrap();
        let t0 = db.clock();
        db.get("papers", 5, Backend::Software).unwrap();
        let t1 = db.clock();
        db.scan(
            "papers",
            &[FilterRule { lane: paper_lanes::YEAR, op_code: 4, value: 1990 }],
            Backend::Hardware,
        )
        .unwrap();
        let t2 = db.clock();
        assert!(t0 < t1 && t1 < t2);
    }

    /// Regression: `maintain_at` used to `expect` the table's presence,
    /// panicking on a name no caller verified. Reachable from the
    /// cluster router's shard calls, it must be a typed error.
    #[test]
    fn maintenance_on_an_unknown_table_is_a_typed_error() {
        let mut db = paper_db(1, PeVariant::Generated);
        let err = db.maintain_at("no-such-table", 0).unwrap_err();
        assert_eq!(err, NkvError::UnknownTable("no-such-table".into()));
    }

    /// Regression: the recover path near the old `expect("just
    /// created")` site must reject a manifest entry with no supplied
    /// configuration with a typed error, not a panic — this is exactly
    /// what a cluster heal with a stale table list hits.
    #[test]
    fn recover_without_the_tables_config_is_a_typed_error() {
        let mut db = paper_db(1, PeVariant::Generated);
        let cfg = PubGraphConfig { papers: 200, refs: 200, seed: 11 };
        db.bulk_load("papers", PaperGen::new(cfg).map(|p| encode(&p))).unwrap();
        db.persist().unwrap();
        let mut fresh = CosmosPlatform::default_platform();
        fresh.flash = db.platform_mut().flash.clone();
        fresh.flash.reboot();
        let err = match NkvDb::recover(fresh, Vec::new()) {
            Err(e) => e,
            Ok(_) => panic!("recover without any table config must fail"),
        };
        assert!(
            matches!(err, NkvError::Config(ref msg) if msg.contains("papers")),
            "want a typed Config error naming the table, got {err:?}"
        );
    }
}
