//! The pinned API surface: every call the benchmark makes into the
//! product goes through this file, and nothing else in `benchmark/`
//! names a product crate's function.
//!
//! A PR that claims a performance gain may not edit `benchmark/`, so a
//! later API-collapse PR (ROADMAP item 2) has to keep these calls
//! compiling; `README.md` lists them. Where the product offers both a
//! planner-first entry point (`LogicalOp` + `Backend`) and a legacy
//! `(rules, ExecMode)` shim, the planner-first one is used.
//!
//! Each serving call is wrapped in a host-time span (see `span.rs`); the
//! outside view stops at the `nkv` call, and the simulated `Breakdown`
//! carries the decomposition below it.

use crate::span::Tracer;
use std::time::Instant;

pub use cosmos_sim::CacheStats;
pub use ndp_ir::PeConfig;
pub use ndp_pe::oracle::FilterRule;
pub use ndp_workload::{Paper, PaperGen, PubGraphConfig, RefGen, SplitMix64};
pub use nkv::{
    Backend, ClientScript, ClusterRunReport, ClusterStats, DeviceStats, OpKind, QueueRunReport,
    QueuedOp, SimReport,
};

use cosmos_sim::{CosmosConfig, CosmosPlatform, FirmwareEra};
use ndp_pe::template::{PeObservability, PePopulation, PeVariant};
use ndp_workload::spec::{paper_lanes, ref_lanes, PAPER_PE, PAPER_REF_SPEC, REF_PE};
use nkv::{ClusterConfig, LogicalOp, NkvCluster, NkvDb, NkvError, PlanOutcome, TableConfig};

pub type Res<T> = Result<T, NkvError>;
/// One key's outcome: the record, `None` for an absent key, or its error.
pub type GetResult = Res<Option<Vec<u8>>>;

/// Operator codes of the standard set (ndp-ir encodings).
pub mod ops {
    pub const EQ: u32 = 2;
    pub const GE: u32 = 4;
}

pub const PAPERS: &str = "papers";
pub const REFS: &str = "refs";
pub const PAPER_BYTES: usize = ndp_workload::pubgraph::PAPER_BYTES;
pub const REF_BYTES: usize = ndp_workload::pubgraph::REF_BYTES;
/// The paper's processing granularity (one SST data block).
pub const BLOCK_BYTES: u64 = 32 * 1024;
/// 100 MHz PL clock: one PE cycle in simulated nanoseconds.
pub const PL_CLK_NS: u64 = cosmos_sim::timing::PL_CLK_NS;

/// Fig. 7b's evaluation predicates.
pub fn paper_scan_rules() -> Vec<FilterRule> {
    vec![FilterRule { lane: paper_lanes::YEAR, op_code: ops::GE, value: 2019 }]
}
pub fn ref_scan_rules() -> Vec<FilterRule> {
    vec![FilterRule { lane: ref_lanes::YEAR, op_code: ops::EQ, value: 1980 }]
}
/// The queued mix's selective SCAN (`loadgen::client_script`'s predicate).
pub fn mixed_scan_rules() -> Vec<FilterRule> {
    vec![FilterRule { lane: paper_lanes::YEAR, op_code: ops::GE, value: 2015 }]
}
/// Selects exactly the records `ingest_churn` rewrote (generator venues
/// stay below 5000).
pub fn rewritten_rules() -> Vec<FilterRule> {
    vec![FilterRule { lane: paper_lanes::VENUE, op_code: ops::GE, value: 5000 }]
}

pub fn paper_matches(p: &Paper, rules: &[FilterRule]) -> bool {
    rules.iter().all(|r| {
        let v = match r.lane {
            paper_lanes::YEAR => u64::from(p.year),
            paper_lanes::VENUE => u64::from(p.venue),
            _ => return false,
        };
        match r.op_code {
            ops::EQ => v == r.value,
            ops::GE => v >= r.value,
            _ => false,
        }
    })
}

pub fn encode_paper(p: &Paper) -> Vec<u8> {
    let mut buf = Vec::with_capacity(PAPER_BYTES);
    p.encode_into(&mut buf);
    buf
}

pub fn dataset_config(scale: f64, seed: u64) -> PubGraphConfig {
    PubGraphConfig { seed, ..PubGraphConfig::scaled(scale) }
}

// ------------------------------------------------------------ generator

/// The bundled evaluation spec, elaborated: `(paper-PE, ref-PE)`.
pub fn evaluation_pes() -> (PeConfig, PeConfig) {
    let module = ndp_spec::parse(PAPER_REF_SPEC).expect("bundled spec parses");
    (
        ndp_ir::elaborate(&module, PAPER_PE).expect("bundled spec elaborates"),
        ndp_ir::elaborate(&module, REF_PE).expect("bundled spec elaborates"),
    )
}

pub fn evaluation_spec() -> &'static str {
    PAPER_REF_SPEC
}

/// What the toolflow produced for one specification, stage by stage.
pub struct Generated {
    pub pes: Vec<PeConfig>,
    pub verilog_bytes: u64,
    pub header_bytes: u64,
    /// In-context slices per PE (the Table I quantity).
    pub slices: Vec<u32>,
}

/// The four generator stages, called one by one so their spans nest
/// under the caller's request span.
pub fn generate_staged(tr: &mut Tracer, source: &str) -> Result<Generated, String> {
    let s = tr.begin("ndp-spec.parse");
    let module = ndp_spec::parse(source);
    tr.end(s);
    let module = module.map_err(|e| e.to_string())?;

    let s = tr.begin("ndp-ir.elaborate_all");
    let pes = ndp_ir::elaborate_all(&module);
    tr.end(s);
    let pes = pes.map_err(|e| e.to_string())?;

    let mut out =
        Generated { pes: Vec::new(), verilog_bytes: 0, header_bytes: 0, slices: Vec::new() };
    for cfg in &pes {
        let s = tr.begin("ndp-hdl.emit_design");
        let design = ndp_pe::pe_design_opts(cfg, PeVariant::Generated, PeObservability::Counters);
        let verilog = ndp_hdl::verilog::emit_design(&design);
        tr.end(s);
        out.verilog_bytes += verilog.len() as u64;

        let s = tr.begin("ndp-hdl.resources");
        let report = ndp_pe::pe_report_opts(cfg, PeVariant::Generated, PeObservability::Counters);
        tr.end(s);
        out.slices.push(report.slices_in_context);

        let s = tr.begin("ndp-swgen.generate_header");
        let header = ndp_swgen::generate_header(cfg);
        tr.end(s);
        out.header_bytes += header.len() as u64;
    }
    out.pes = pes;
    Ok(out)
}

/// The one-call facade (`ndp_core::generate`); returns the PE count.
pub fn generate_facade(source: &str) -> Result<usize, String> {
    ndp_core::generate(source).map(|a| a.pes.len()).map_err(|e| e.to_string())
}

/// The byte-level reference semantics of one PE.
pub struct Oracle {
    bp: ndp_pe::oracle::BlockProcessor,
    ops: ndp_pe::oracle::OpTable,
}

impl Oracle {
    pub fn new(cfg: &PeConfig) -> Self {
        Self {
            bp: ndp_pe::oracle::BlockProcessor::new(cfg),
            ops: ndp_pe::oracle::OpTable::from_config(cfg),
        }
    }

    /// Filter + transform one block into `out`; `(tuples_in, tuples_out)`.
    pub fn process(&self, block: &[u8], rules: &[FilterRule], out: &mut Vec<u8>) -> (u64, u64) {
        let s = self.bp.process_block(block, rules, &self.ops, out);
        (u64::from(s.tuples_in), u64::from(s.tuples_out))
    }
}

/// The cycle-level PE behind its generated software interface.
pub struct CyclePe {
    drv: ndp_swgen::PeDriver<ndp_pe::PeSim>,
    mem: ndp_pe::VecMem,
}

/// One cycle-level block job's outcome.
pub struct CycleBlock {
    pub cycles: u64,
    pub tuples_in: u64,
    pub tuples_out: u64,
    pub result: Vec<u8>,
}

impl CyclePe {
    const DST: u64 = 0x8_0000;

    pub fn new(cfg: &PeConfig) -> Self {
        Self {
            drv: ndp_swgen::PeDriver::new(
                ndp_pe::PeSim::new(cfg.clone()),
                ndp_swgen::DriverProfile::Generated,
            ),
            mem: ndp_pe::VecMem::new(1 << 20),
        }
    }

    /// Stream one block through the tick-level pipeline via `filter_sync`.
    pub fn process(&mut self, block: &[u8], rules: &[FilterRule]) -> CycleBlock {
        use ndp_pe::MemBus;
        self.mem.write_bytes(0, block);
        let job = ndp_swgen::FilterJob {
            src: 0,
            len: block.len() as u32,
            dst: Self::DST,
            capacity: 1 << 18,
            rules: rules.to_vec(),
            aggregate: None,
        };
        let res = self.drv.filter_sync(&mut self.mem, &job);
        let mut result = vec![0u8; res.result_bytes as usize];
        self.mem.read_bytes(Self::DST, &mut result);
        CycleBlock {
            cycles: res.block.cycles,
            tuples_in: u64::from(res.block.tuples_in),
            tuples_out: u64::from(res.tuples_out),
            result,
        }
    }
}

/// Table I as the repo computes it: per-PE in-context slices and the two
/// Overall rows, each paired with the paper's printed number.
pub fn table1_pairs() -> Vec<(&'static str, f64, f64)> {
    let (paper, r#ref) = evaluation_pes();
    let sys = |variant| {
        ndp_pe::template::system_report(&[
            PePopulation { cfg: paper.clone(), variant, count: 1 },
            PePopulation { cfg: r#ref.clone(), variant, count: 7 },
        ])
        .overall_slices
    };
    let pe = |cfg: &PeConfig, variant| f64::from(ndp_pe::pe_report(cfg, variant).slices_in_context);
    vec![
        ("paper-PE [1]", pe(&paper, PeVariant::HandCrafted), 9480.0),
        ("paper-PE ours", pe(&paper, PeVariant::Generated), 14348.0),
        ("ref-PE [1]", pe(&r#ref, PeVariant::HandCrafted), 1277.0),
        ("ref-PE ours", pe(&r#ref, PeVariant::Generated), 1446.0),
        ("overall ours", f64::from(sys(PeVariant::Generated)), 41934.0),
        ("overall [1]", f64::from(sys(PeVariant::HandCrafted)), 40821.0),
    ]
}

// --------------------------------------------------------------- device

/// Which system composition to build (Table I / Fig. 7's two systems).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Composition {
    /// This work: generated PEs, updated firmware.
    Ours,
    /// Vinçon et al. \[1\]: hand-crafted PEs, original firmware.
    Baseline,
}

/// How to build a device.
#[derive(Debug, Clone, Copy)]
pub struct DeviceSpec {
    pub composition: Composition,
    pub cfg: PubGraphConfig,
    /// Bulk-load the refs table too (it is always *created*, so the PE
    /// population is the paper's 1 + 7 either way).
    pub load_refs: bool,
    /// `C1` SST limit of the papers table: the paper's churn shape keeps
    /// 12 overlapping SSTs; `None` takes `LsmConfig::default()`.
    pub papers_c1_limit: Option<usize>,
    /// Leave out every paper whose id is a multiple of this, so point
    /// lookups have in-range absent keys that reach the bloom filters.
    pub skip_every: Option<u64>,
}

/// A loaded device plus what the loader saw on the way in.
pub struct Device {
    pub db: NkvDb,
    pub cfg: PubGraphConfig,
    pub load: LoadStats,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct LoadStats {
    pub records: u64,
    pub bytes: u64,
    pub host_ns: u64,
    /// Records of each table matching Fig. 7b's predicate, counted on the
    /// generator stream (the expected SCAN answers).
    pub paper_matches: u64,
    pub ref_matches: u64,
}

impl LoadStats {
    /// Host-side bulk-load rate, record generation included.
    pub fn mb_per_s(&self) -> f64 {
        self.bytes as f64 / 1e6 / (self.host_ns.max(1) as f64 / 1e9)
    }
}

fn table_configs(composition: Composition, papers_c1_limit: Option<usize>) -> [TableConfig; 2] {
    let variant = match composition {
        Composition::Ours => PeVariant::Generated,
        Composition::Baseline => PeVariant::HandCrafted,
    };
    let (paper_pe, ref_pe) = evaluation_pes();
    let mut papers = TableConfig::new(paper_pe);
    papers.n_pes = 1;
    papers.variant = variant;
    if let Some(limit) = papers_c1_limit {
        papers.lsm.c1_sst_limit = limit;
    }
    let mut refs = TableConfig::new(ref_pe);
    refs.n_pes = 7;
    refs.variant = variant;
    refs.unique_keys = false; // edge table keyed by source id
    [papers, refs]
}

/// Build a device with the paper's PE population and bulk-load the
/// publication graph, streamed straight from the generator. Single
/// threaded on purpose: with the generator on a second thread the load
/// took 1.2 s or 3 s depending on whether this 2-vCPU box really ran
/// both, and a set-up time that flips between two modes cannot be
/// compared between commits.
pub fn build_device(spec: &DeviceSpec) -> Res<Device> {
    let firmware = match spec.composition {
        Composition::Ours => FirmwareEra::Updated,
        Composition::Baseline => FirmwareEra::Original,
    };
    let mut db = NkvDb::new(CosmosConfig { firmware, ..CosmosConfig::default() });
    let [papers, refs] = table_configs(spec.composition, spec.papers_c1_limit);
    db.create_table(PAPERS, papers)?;
    db.create_table(REFS, refs)?;

    let cfg = spec.cfg;
    let paper_rules = paper_scan_rules();
    let mut load = LoadStats::default();
    let t0 = Instant::now();
    let papers = PaperGen::new(cfg)
        .filter(|p| spec.skip_every.is_none_or(|k| !p.id.is_multiple_of(k)))
        .map(|p| {
            load.paper_matches += u64::from(paper_matches(&p, &paper_rules));
            encode_paper(&p)
        });
    let n = db.bulk_load(PAPERS, papers)?;
    load.records += n;
    load.bytes += n * PAPER_BYTES as u64;
    if spec.load_refs {
        let refs = RefGen::new(cfg).map(|r| {
            load.ref_matches += u64::from(r.year == 1980);
            let mut buf = Vec::with_capacity(REF_BYTES);
            r.encode_into(&mut buf);
            buf
        });
        let n = db.bulk_load(REFS, refs)?;
        load.records += n;
        load.bytes += n * REF_BYTES as u64;
    }
    load.host_ns = t0.elapsed().as_nanos() as u64;
    Ok(Device { db, cfg, load })
}

/// Create `n` overlapping `C1` SSTs (the shape `figures::churn_c1`
/// builds): 16 keys spanning the whole range per round, then a flush.
/// Returns the churned ids.
pub fn churn_c1(dev: &mut Device, n: usize) -> Res<Vec<u64>> {
    let span = dev.cfg.papers;
    let mut ids = Vec::new();
    for _ in 0..n {
        for j in 0..16u64 {
            let p = PaperGen::paper_at(&dev.cfg, j * (span - 1) / 15);
            ids.push(p.id);
            dev.db.put(PAPERS, encode_paper(&p))?;
        }
        dev.db.flush(PAPERS)?;
    }
    ids.sort_unstable();
    ids.dedup();
    Ok(ids)
}

/// Turn on the product's existing observability (op metrics + DES spans).
pub fn enable_observability(dev: &mut Device) {
    dev.db.enable_observability(1 << 20);
}

/// Drop the spans the device kept for `take_trace`, so a long traced run
/// does not grow without bound. Returns how many there were.
pub fn discard_device_trace(dev: &mut Device) -> usize {
    dev.db.take_trace().len()
}

pub fn get(
    dev: &mut Device,
    tr: &mut Tracer,
    span: &'static str,
    key: u64,
    backend: Backend,
) -> Res<(Option<Vec<u8>>, SimReport)> {
    let s = tr.begin(span);
    let out = dev.db.execute(PAPERS, &LogicalOp::Get { key }, backend);
    tr.end(s);
    match out? {
        PlanOutcome::Point { record, report } => Ok((record, report)),
        _ => Err(NkvError::Config("GET lowered to a non-point outcome".into())),
    }
}

pub fn multi_get(
    dev: &mut Device,
    tr: &mut Tracer,
    span: &'static str,
    keys: &[u64],
    backend: Backend,
) -> Res<(Vec<GetResult>, SimReport)> {
    let s = tr.begin(span);
    let out = dev.db.execute(PAPERS, &LogicalOp::MultiGet { keys: keys.to_vec() }, backend);
    tr.end(s);
    match out? {
        PlanOutcome::Batch { results, report } => Ok((results, report)),
        PlanOutcome::Point { record, report } => Ok((vec![Ok(record)], report)),
        _ => Err(NkvError::Config("MULTI_GET lowered to a non-batch outcome".into())),
    }
}

/// A filter scan's matched records, their count and the report.
pub struct Scan {
    pub records: Vec<u8>,
    pub count: u64,
    pub report: SimReport,
}

pub fn scan(
    dev: &mut Device,
    tr: &mut Tracer,
    span: &'static str,
    table: &str,
    rules: &[FilterRule],
    backend: Backend,
) -> Res<Scan> {
    let s = tr.begin(span);
    let out = dev.db.execute(table, &LogicalOp::Scan { rules: rules.to_vec() }, backend);
    tr.end(s);
    match out? {
        PlanOutcome::Records { records, count, report } => Ok(Scan { records, count, report }),
        _ => Err(NkvError::Config("SCAN lowered to a non-scan outcome".into())),
    }
}

/// Parallel PE job streams for a table's hardware scans (0 = serial).
pub fn set_parallel_pes(dev: &mut Device, table: &str, n: usize) -> Res<()> {
    dev.db.set_parallel_pes(table, n)
}

pub fn put(dev: &mut Device, record: Vec<u8>) -> Res<()> {
    dev.db.put(PAPERS, record)
}

pub fn delete(dev: &mut Device, key: u64) -> Res<()> {
    dev.db.delete(PAPERS, key)
}

pub fn flush(dev: &mut Device) -> Res<()> {
    dev.db.flush(PAPERS)
}

pub fn persist(dev: &mut Device) -> Res<()> {
    dev.db.persist()
}

/// Power-cut the device and recover a fresh one from its flash image
/// alone: DRAM, memtables and every in-memory index are gone.
pub fn power_cycle(
    mut dev: Device,
    composition: Composition,
    c1_limit: Option<usize>,
) -> Res<Device> {
    let firmware = dev.db.platform_mut().firmware;
    let mut fresh = CosmosPlatform::new(CosmosConfig { firmware, ..CosmosConfig::default() });
    std::mem::swap(&mut fresh.flash, &mut dev.db.platform_mut().flash);
    fresh.flash.reboot();
    let (cfg, load) = (dev.cfg, dev.load);
    drop(dev);
    let [papers, refs] = table_configs(composition, c1_limit);
    let db = NkvDb::recover(fresh, vec![(PAPERS.into(), papers), (REFS.into(), refs)])?;
    Ok(Device { db, cfg, load })
}

pub fn enable_cache(dev: &mut Device, budget_bytes: usize) {
    dev.db.enable_cache(budget_bytes);
}

pub fn disable_cache(dev: &mut Device) {
    dev.db.disable_cache();
}

pub fn cache_stats(dev: &Device) -> CacheStats {
    dev.db.cache_stats().unwrap_or_default()
}

pub fn device_stats(dev: &Device) -> DeviceStats {
    dev.db.device_stats()
}

pub fn sim_clock_ns(dev: &Device) -> u64 {
    dev.db.clock()
}

/// Raw flash counters of one device.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlashCounters {
    pub reads: u64,
    pub programs: u64,
    /// Busy time summed over the controller DMA stages.
    pub busy_ns: u64,
    pub stored_bytes: u64,
    pub page_bytes: u64,
    pub controllers: u64,
}

pub fn flash_counters(dev: &mut Device) -> FlashCounters {
    let flash = &dev.db.platform_mut().flash;
    let (reads, programs) = flash.op_counts();
    FlashCounters {
        reads,
        programs,
        busy_ns: flash.controller_busy_ns(),
        stored_bytes: flash.stored_bytes(),
        page_bytes: u64::from(flash.config().page_bytes),
        controllers: u64::from(flash.config().controllers),
    }
}

/// Blocks each worker of the table's last parallel scan processed.
pub fn parallel_scan_blocks(dev: &Device, table: &str) -> Vec<u64> {
    dev.db
        .parallel_scan_stats(table)
        .ok()
        .flatten()
        .map(|s| s.blocks_per_worker)
        .unwrap_or_default()
}

pub fn level_sizes(dev: &Device) -> Vec<usize> {
    dev.db.level_sizes(PAPERS).unwrap_or_default()
}

// ---------------------------------------------------------- queue engine

/// Closed-loop run parameters: hardware mode, default queue geometry,
/// no auto-batching.
pub fn queue_config(depth: u32) -> nkv::QueueRunConfig {
    nkv::QueueRunConfig { depth, ..nkv::QueueRunConfig::default() }
}

pub fn run_queued(
    dev: &mut Device,
    tr: &mut Tracer,
    scripts: &[ClientScript],
    depth: u32,
) -> Res<QueueRunReport> {
    let s = tr.begin("nkv.run_queued");
    let out = dev.db.run_queued(PAPERS, scripts, &queue_config(depth));
    tr.end(s);
    out
}

/// A hash-sharded fleet holding the papers table.
pub struct Fleet {
    pub cluster: NkvCluster,
    pub cfg: PubGraphConfig,
}

pub fn build_fleet(cfg: PubGraphConfig, devices: usize) -> Res<Fleet> {
    let mut cluster = NkvCluster::new(ClusterConfig { devices, ..ClusterConfig::default() })?;
    let [papers, _] = table_configs(Composition::Ours, Some(12));
    cluster.create_table(PAPERS, papers)?;
    cluster.bulk_load(PAPERS, PaperGen::new(cfg).map(|p| encode_paper(&p)).collect())?;
    cluster.persist()?;
    Ok(Fleet { cluster, cfg })
}

pub fn fleet_enable_observability(fleet: &mut Fleet) {
    fleet.cluster.enable_observability(1 << 20);
}

pub fn fleet_run_queued(
    fleet: &mut Fleet,
    tr: &mut Tracer,
    scripts: &[ClientScript],
    depth: u32,
) -> Res<ClusterRunReport> {
    let s = tr.begin("nkv.cluster_run_queued");
    let out = fleet.cluster.run_queued(PAPERS, scripts, &queue_config(depth));
    tr.end(s);
    out
}

pub fn fleet_get(fleet: &mut Fleet, key: u64) -> Res<Option<Vec<u8>>> {
    fleet.cluster.get(PAPERS, key, Backend::Hardware).map(|g| g.record)
}

pub fn fleet_stats(fleet: &Fleet) -> ClusterStats {
    fleet.cluster.cluster_stats()
}

pub fn fleet_discard_trace(fleet: &mut Fleet) {
    let _ = fleet.cluster.take_cluster_trace();
}

// ------------------------------------------------------- micro-kernels
//
// Single public functions of one layer, timed in isolation on inputs
// shaped like the workloads'. `kernels.rs` owns the timing loops; the
// product calls live here.

pub mod kernel {
    use super::*;
    use cosmos_sim::{
        BlockCache, FlashArray, FlashConfig, NvmeQueueConfig, PhysAddr, Server, TraceEvent,
        TraceKind, TraceRing,
    };
    use std::hint::black_box;

    /// `n` reservations with monotone arrivals (the serial paths' shape).
    pub fn server_schedule(n: u64) {
        let mut s = Server::new();
        let mut t = 0u64;
        for i in 0..n {
            let (_, done) = s.schedule(t, 1_000 + (i & 7));
            t = done + (i & 3) * 500;
        }
        black_box(s.busy_total());
    }

    /// `n` reservations in backfill mode with arrivals that jump back
    /// into gaps (the queue engine's and the parallel scan's shape).
    pub fn server_backfill(n: u64) {
        let mut s = Server::new();
        s.set_backfill(true);
        let mut t = 0u64;
        for i in 0..n {
            let arrival = if i % 4 == 3 { t.saturating_sub(40_000) } else { t };
            let (_, done) = s.schedule(arrival, 1_000 + (i & 7));
            t = done + 3_000;
        }
        black_box(s.busy_total());
    }

    /// A flash array with `pages` programmed pages, striped like the
    /// product's allocator stripes a table.
    pub struct FlashBed {
        flash: FlashArray,
        addrs: Vec<PhysAddr>,
        page: Vec<u8>,
        next: u32,
    }

    impl FlashBed {
        pub fn new(pages: u32) -> Self {
            let cfg = FlashConfig::default();
            let page = vec![0xA5u8; cfg.page_bytes as usize];
            let mut flash = FlashArray::new(cfg.clone());
            let mut addrs = Vec::with_capacity(pages as usize);
            for i in 0..pages {
                let addr = Self::addr(&cfg, i);
                flash.program_page(addr, &page, 0).expect("kernel flash program");
                addrs.push(addr);
            }
            Self { flash, addrs, page, next: pages }
        }

        fn addr(cfg: &FlashConfig, i: u32) -> PhysAddr {
            let ch = u32::from(cfg.channels);
            let luns = u32::from(cfg.luns_per_channel);
            PhysAddr {
                channel: (i % ch) as u16,
                lun: (i / ch % luns) as u16,
                page: i / (ch * luns),
            }
        }

        /// Read every programmed page once; returns pages read.
        pub fn read_all(&mut self) -> u64 {
            let mut now = 0u64;
            for &a in &self.addrs {
                let (done, data) = self.flash.read_page(a, now).expect("kernel flash read");
                black_box(data.len());
                now = done.saturating_sub(50_000);
            }
            self.addrs.len() as u64
        }

        /// Program `n` fresh pages.
        pub fn program(&mut self, n: u32) {
            let cfg = self.flash.config().clone();
            for _ in 0..n {
                let addr = Self::addr(&cfg, self.next);
                self.next += 1;
                black_box(self.flash.program_page(addr, &self.page, 0).expect("kernel program"));
            }
        }
    }

    /// A block cache half as large as the key set cycled through it.
    pub struct CacheBed {
        cache: BlockCache,
        block: Vec<u8>,
        keys: u64,
    }

    impl CacheBed {
        pub fn new() -> Self {
            let keys = 512u64;
            let mut bed = Self {
                cache: BlockCache::new(8 << 20),
                block: vec![0x5Au8; BLOCK_BYTES as usize],
                keys,
            };
            bed.insert(keys);
            bed
        }

        pub fn lookup(&mut self, n: u64) {
            for i in 0..n {
                black_box(self.cache.lookup(1 + i % 4, (i * 7 % self.keys) as usize).is_some());
            }
        }

        pub fn insert(&mut self, n: u64) {
            for i in 0..n {
                self.cache.insert(1 + i % 4, (i % self.keys) as usize, self.block.clone());
            }
        }
    }

    pub fn trace_record(n: u64) {
        let mut ring = TraceRing::new(1 << 16);
        for i in 0..n {
            ring.record(TraceEvent {
                kind: TraceKind::PeJob { pe: (i & 7) as u32, cycles: 4096 },
                start: i * 100,
                dur: 90,
            });
        }
        black_box(ring.len());
    }

    /// Admission + completion of `n` commands on the NVMe queue pairs.
    pub fn queue_submit(n: u64) {
        let mut p = CosmosPlatform::default_platform();
        p.enable_queues(NvmeQueueConfig::default());
        let mut now = 0u64;
        for i in 0..n {
            let (qid, _, fetched) = p.queue_submit((i & 7) as u32, i as u16, now);
            now = p.queue_complete(qid, i as u16, fetched + 20_000).saturating_sub(15_000);
        }
        black_box(now);
    }

    pub fn memtable_put(n: u64) {
        let mut m = nkv::memtable::MemTable::new(7);
        for k in 0..n {
            m.put(k.wrapping_mul(2_654_435_761) % 1_000_003, vec![0u8; PAPER_BYTES]);
        }
        black_box(m.len());
    }

    pub struct BloomBed(nkv::util::Bloom);

    impl BloomBed {
        pub fn new() -> Self {
            let mut b = nkv::util::Bloom::new(100_000, 10);
            for k in 0..100_000u64 {
                b.insert(k * 3 + 1);
            }
            Self(b)
        }

        pub fn lookup(&self, n: u64) {
            let mut k = 0u64;
            let mut hits = 0u64;
            for _ in 0..n {
                k = k.wrapping_add(982_451_653) % 300_000;
                hits += u64::from(self.0.may_contain(k));
            }
            black_box(hits);
        }
    }

    pub fn crc32c(block: &[u8]) -> u32 {
        nkv::util::crc32c(black_box(block))
    }

    pub fn hist_record(n: u64) {
        let mut h = nkv::LatencyHistogram::new();
        for i in 0..n {
            h.record(50_000 + i * 977 % 9_000_000);
        }
        black_box(h.count());
    }

    /// A small loaded device for the planner kernels.
    pub fn planner_device(seed: u64) -> Res<Device> {
        build_device(&DeviceSpec {
            composition: Composition::Ours,
            cfg: dataset_config(1.0 / 2048.0, seed),
            load_refs: false,
            papers_c1_limit: Some(12),
            skip_every: None,
        })
    }

    pub fn plan_lower(dev: &Device, n: u64) {
        let scan = LogicalOp::Scan { rules: paper_scan_rules() };
        for i in 0..n {
            let op = if i & 1 == 0 { LogicalOp::Get { key: 1 + i } } else { scan.clone() };
            black_box(dev.db.plan(PAPERS, &op, Backend::Hardware).is_ok());
        }
    }

    pub fn cost_choose(dev: &Device, n: u64) {
        let scan = LogicalOp::Scan { rules: paper_scan_rules() };
        for _ in 0..n {
            black_box(dev.db.choose_backend(PAPERS, &scan).is_ok());
        }
    }

    /// Generate and encode `n` paper records; returns bytes produced.
    pub fn gen_records(cfg: &PubGraphConfig, n: u64) -> u64 {
        let mut bytes = 0u64;
        for i in 0..n {
            bytes += encode_paper(&PaperGen::paper_at(cfg, i % cfg.papers)).len() as u64;
        }
        black_box(bytes)
    }
}
