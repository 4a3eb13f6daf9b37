//! Beyond-paper figure: closed-loop multi-client load through the NVMe
//! queue engine.
//!
//! The paper evaluates one operation at a time; its motivation ("data
//! lakes … millions of users") is a throughput story. This figure
//! sweeps the client count over the same device and dataset and reports
//! sustained ops/s plus latency percentiles per point: throughput
//! scales while independent commands land on disjoint flash LUNs and
//! PEs, then saturates on the hottest shared resource (the paper's
//! flash bottleneck, reached from the queue engine instead of a single
//! streaming SCAN).
//!
//! Every run is seeded: client scripts come from `SplitMix64` streams,
//! so a `(seed, scale, clients, depth, ops)` tuple reproduces
//! byte-identical tables (used by `scripts/check.sh`'s smoke diff).

use crate::dataset::{build_db, paper_records, paper_table_config, DbKind};
use cosmos_sim::{chrome_trace_json_cluster, ns_to_secs};
use ndp_pe::oracle::FilterRule;
use ndp_pe::template::PeVariant;
use ndp_workload::spec::{paper_lanes, ref_lanes};
use ndp_workload::{PaperGen, PubGraphConfig, SplitMix64};
use nkv::queue::{ClientScript, Priority, QueueRunConfig, QueuedOp};
use nkv::{Backend, ClusterConfig, LatencyHistogram, NkvCluster};

/// Parameters of one loadgen sweep.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Dataset scale (1.0 = the paper's full volume).
    pub scale: f64,
    /// Client counts to sweep, one figure row each.
    pub clients: Vec<u32>,
    /// Per-client window of in-flight commands.
    pub depth: u32,
    /// Commands each client issues.
    pub ops_per_client: u32,
    /// Workload seed (scripts are derived per client from this).
    pub seed: u64,
    /// Device-DRAM block-cache budget for the cache sweep, MiB. `0`
    /// (the default) skips the sweep and leaves the cache off.
    pub cache_mb: usize,
    /// Device counts for the clients x devices cluster matrix. Empty
    /// (the default) skips the matrix.
    pub devices: Vec<usize>,
    /// Max keys per batched-GET key list for the batched-GET sweep.
    /// `1` (the default) skips the sweep and keeps every queued run on
    /// the per-key path.
    pub batch: u32,
    /// Run the mixed-priority QoS sweep (bulk scan flood vs
    /// latency-sensitive GETs, FIFO baseline vs priority dispatch).
    /// `false` (the default) skips the sweep.
    pub qos: bool,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            scale: 1.0 / 256.0,
            clients: vec![1, 2, 4, 8, 16, 32],
            depth: 8,
            ops_per_client: 64,
            seed: 42,
            cache_mb: 0,
            devices: Vec::new(),
            batch: 1,
            qos: false,
        }
    }
}

/// One row of the figure.
#[derive(Debug, Clone)]
pub struct LoadgenPoint {
    pub clients: u32,
    /// Commands completed.
    pub ops: u64,
    /// Simulated wall time of the run, seconds.
    pub(crate) span_s: f64,
    /// Sustained throughput over the run.
    pub(crate) ops_per_sec: f64,
    /// `LatencyHistogram::tail_summary` of submit→complete times
    /// (p50/p95/p99/p99.9/max).
    pub latency: String,
    /// Full-queue admission stalls across all pairs.
    pub full_stalls: u64,
    /// High-water mark of in-flight commands on any single pair.
    pub max_inflight: u64,
}

/// One row of the parallel-PE scan sweep (`streams == 0` is the legacy
/// serial dispatch).
#[derive(Debug, Clone)]
pub struct ParallelSweepPoint {
    pub(crate) streams: usize,
    /// Simulated device time of one full-table SCAN, milliseconds.
    pub(crate) scan_ms: f64,
    /// Records matched (identical across rows — asserted).
    pub matched: u64,
    /// Speedup relative to the 1-stream row (`t_1 / t_self`).
    pub(crate) speedup: f64,
}

/// One row of the DRAM block-cache sweep (`budget_mb == 0` is the
/// cache-off baseline every other row must match byte-for-byte).
#[derive(Debug, Clone)]
pub struct CacheSweepPoint {
    /// Cache budget, MiB (0 = cache disabled).
    pub(crate) budget_mb: usize,
    /// Hit rate over the whole repeated-scan run, `hits / lookups`.
    pub(crate) hit_rate: f64,
    /// Median per-scan simulated device time, milliseconds.
    pub(crate) p50_ms: f64,
    /// p99 per-scan simulated device time, milliseconds (the cold
    /// first scan lands here, so it stays near the uncached p50).
    pub(crate) p99_ms: f64,
}

/// One row of the batched-GET sweep (`batch == 1` is the legacy
/// per-key queue path every other row must match record-for-record).
#[derive(Debug, Clone)]
pub struct BatchedSweepPoint {
    /// Max keys folded into one key-list descriptor.
    pub batch: u32,
    /// Commands completed (identical across rows — asserted).
    pub ops: u64,
    /// Simulated wall time of the run, seconds.
    pub(crate) span_s: f64,
    /// Sustained GET throughput over the run.
    pub(crate) ops_per_sec: f64,
    /// Doorbell MMIOs the coalescer saved across the run.
    pub coalesced_doorbells: u64,
    /// `LatencyHistogram::tail_summary` of submit→complete times.
    pub latency: String,
    /// Throughput relative to the batch-1 row (`self / t_1`).
    pub(crate) speedup: f64,
}

/// One row of the mixed-priority QoS sweep: the same seeded workload
/// (a bulk scan flood plus one latency-sensitive GET client) run once
/// with every client at [`Priority::Normal`] (the FIFO baseline) and
/// once with QoS classes attached (`fifo` vs `priority` rows).
#[derive(Debug, Clone)]
pub struct QosSweepPoint {
    /// Dispatch mode: `"fifo"` (all-Normal baseline) or `"priority"`.
    pub mode: &'static str,
    /// Commands completed (identical across rows — asserted).
    pub ops: u64,
    /// Simulated wall time of the run, seconds.
    pub(crate) span_s: f64,
    /// Sustained throughput over the run.
    pub(crate) ops_per_sec: f64,
    /// p99 submit→complete latency of the GET client, milliseconds —
    /// the number the priority heap exists to shrink.
    pub(crate) get_p99_ms: f64,
    /// `LatencyHistogram::tail_summary` across all commands.
    pub latency: String,
}

/// One cell of the clients x devices cluster matrix: the same seeded
/// client scripts pushed through an [`NkvCluster`] of `devices`
/// hash-sharded Cosmos+ instances.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterMatrixPoint {
    pub clients: u32,
    pub devices: usize,
    /// Logical commands issued across all clients.
    pub ops: u64,
    /// Simulated wall time of the run (slowest shard), seconds.
    pub(crate) span_s: f64,
    /// Sustained cluster throughput over the run.
    pub(crate) ops_per_sec: f64,
    /// `LatencyHistogram::tail_summary` of submit→complete times,
    /// merged across shards.
    pub latency: String,
}

/// The whole sweep.
#[derive(Debug, Clone)]
pub struct LoadgenFigure {
    pub cfg: LoadgenConfig,
    pub(crate) points: Vec<LoadgenPoint>,
    /// Parallel-PE scan sweep over the refs table (the paper's "1..N
    /// filtering units"), same scale and dataset as the client sweep.
    pub(crate) sweep: Vec<ParallelSweepPoint>,
    /// DRAM block-cache sweep; empty unless `cfg.cache_mb > 0`.
    pub(crate) cache: Vec<CacheSweepPoint>,
    /// Clients x devices cluster matrix; empty unless `cfg.devices` is
    /// non-empty.
    pub(crate) cluster: Vec<ClusterMatrixPoint>,
    /// Batched-GET sweep; empty unless `cfg.batch > 1`.
    pub(crate) batched: Vec<BatchedSweepPoint>,
    /// Mixed-priority QoS sweep; empty unless `cfg.qos` is set.
    pub qos: Vec<QosSweepPoint>,
}

/// Build the seeded script for one client: ~90 % GET, ~8 % PUT
/// (re-writes of existing papers), ~2 % selective SCAN.
pub(crate) fn client_script(
    cfg: &PubGraphConfig,
    seed: u64,
    client: u32,
    ops: u32,
) -> ClientScript {
    let mut rng = SplitMix64::for_record(seed, 0x10ad + u64::from(client), 0);
    let mut script = ClientScript::default();
    for _ in 0..ops {
        let roll = rng.gen_u32(100);
        let idx = rng.gen_u64(cfg.papers);
        let op = if roll < 90 {
            QueuedOp::Get { key: PaperGen::paper_at(cfg, idx).id }
        } else if roll < 98 {
            let p = PaperGen::paper_at(cfg, idx);
            let mut rec = Vec::with_capacity(80);
            p.encode_into(&mut rec);
            QueuedOp::Put { record: rec }
        } else {
            QueuedOp::Scan {
                rules: vec![FilterRule { lane: paper_lanes::YEAR, op_code: 4, value: 2015 }],
            }
        };
        script.ops.push(op);
    }
    script
}

/// The sweep without its trace.
#[cfg(test)]
pub(crate) fn loadgen(cfg: &LoadgenConfig) -> LoadgenFigure {
    loadgen_traced(cfg, false).0
}

/// Run the sweep: one freshly built device per client count (so points
/// are independent and each run starts from the identical bulk-loaded
/// state), hardware execution mode throughout, plus the optional merged
/// cluster trace from `cluster_matrix_traced` (requires a non-empty
/// `cfg.devices`).
pub fn loadgen_traced(cfg: &LoadgenConfig, trace: bool) -> (LoadgenFigure, Option<String>) {
    let mut points = Vec::with_capacity(cfg.clients.len());
    for &n in &cfg.clients {
        let mut ds = build_db(cfg.scale, DbKind::Ours);
        let scripts: Vec<ClientScript> =
            (0..n).map(|c| client_script(&ds.cfg, cfg.seed, c, cfg.ops_per_client)).collect();
        let run_cfg = QueueRunConfig { depth: cfg.depth, ..QueueRunConfig::default() };
        let report = ds.db.run_queued("papers", &scripts, &run_cfg).expect("queued run succeeds");
        let queue = report.queue;
        points.push(LoadgenPoint {
            clients: n,
            ops: report.ops(),
            span_s: ns_to_secs(report.finished_ns - report.started_ns),
            ops_per_sec: report.throughput_ops_per_sec(),
            latency: report.latency.tail_summary(),
            full_stalls: queue.full_stalls,
            max_inflight: queue.max_inflight,
        });
    }
    let sweep = parallel_sweep(cfg.scale, &[0, 1, 2, 4]);
    let cache = if cfg.cache_mb > 0 { cache_sweep(cfg.scale, cfg.cache_mb) } else { Vec::new() };
    let (cluster, trace_json) = cluster_matrix_traced(cfg, trace);
    let batched = if cfg.batch > 1 { batched_get_sweep(cfg) } else { Vec::new() };
    let qos = if cfg.qos { qos_sweep(cfg) } else { Vec::new() };
    (LoadgenFigure { cfg: cfg.clone(), points, sweep, cache, cluster, batched, qos }, trace_json)
}

/// Run the clients x devices cluster matrix: for every `(clients,
/// devices)` cell, bulk-load the papers table into a fresh
/// [`NkvCluster`] of that many hash-sharded devices and push the same
/// seeded client scripts through [`NkvCluster::run_queued`] (the router
/// partitions each script by key, so the per-op order every device sees
/// is deterministic). Empty `cfg.devices` skips the matrix.
#[cfg(test)]
pub(crate) fn cluster_matrix(cfg: &LoadgenConfig) -> Vec<ClusterMatrixPoint> {
    cluster_matrix_traced(cfg, false).0
}

/// [`cluster_matrix`] plus an optional merged Chrome trace: when
/// `trace` is on, the *last* cell (largest device count of the last
/// client row — the most interesting flame graph) runs with cluster
/// observability enabled, and its merged multi-device trace JSON is
/// returned alongside the rows. Tracing is timing-invisible, so every
/// cell's numbers are byte-identical either way.
pub(crate) fn cluster_matrix_traced(
    cfg: &LoadgenConfig,
    trace: bool,
) -> (Vec<ClusterMatrixPoint>, Option<String>) {
    let mut rows = Vec::new();
    if cfg.devices.is_empty() {
        return (rows, None);
    }
    let papers_cfg = paper_table_config(PeVariant::Generated);
    let pub_cfg = PubGraphConfig::scaled(cfg.scale);
    let records = paper_records(pub_cfg);
    let cells = cfg.clients.len() * cfg.devices.len();
    let mut trace_json = None;
    for (i, &n) in cfg.clients.iter().enumerate() {
        let scripts: Vec<ClientScript> =
            (0..n).map(|c| client_script(&pub_cfg, cfg.seed, c, cfg.ops_per_client)).collect();
        for (j, &d) in cfg.devices.iter().enumerate() {
            let mut cluster =
                NkvCluster::new(ClusterConfig { devices: d, ..ClusterConfig::default() })
                    .expect("cluster config is valid");
            let last_cell = i * cfg.devices.len() + j + 1 == cells;
            cluster.create_table("papers", papers_cfg.clone()).expect("table config is valid");
            cluster.bulk_load("papers", records.clone()).expect("bulk load succeeds");
            cluster.persist().expect("persist succeeds");
            // Enable after the load so the flame graph shows the queued
            // run, not a million bulk-load flash programs.
            if trace && last_cell {
                cluster.enable_observability(1 << 20);
            }
            let run_cfg = QueueRunConfig { depth: cfg.depth, ..QueueRunConfig::default() };
            let report =
                cluster.run_queued("papers", &scripts, &run_cfg).expect("queued run succeeds");
            rows.push(ClusterMatrixPoint {
                clients: n,
                devices: d,
                ops: report.logical_ops,
                span_s: ns_to_secs(report.span_ns),
                ops_per_sec: report.throughput_ops_per_sec(),
                latency: report.latency.tail_summary(),
            });
            if trace && last_cell {
                let (devices, router) = cluster.take_cluster_trace();
                trace_json = Some(chrome_trace_json_cluster(&devices, &router));
            }
        }
    }
    (rows, trace_json)
}

/// Per-client queue depth of the batched-GET sweep: fixed across rows
/// (the fold needs `depth >= batch` same-time commands in flight, and
/// varying depth with batch would conflate queueing with batching).
const BATCHED_SWEEP_DEPTH: u32 = 16;
/// Clients in the batched-GET sweep.
const BATCHED_SWEEP_CLIENTS: u32 = 2;

/// Build the seeded GET-only script for one batched-sweep client.
pub(crate) fn get_script(cfg: &PubGraphConfig, seed: u64, client: u32, ops: u32) -> ClientScript {
    let mut rng = SplitMix64::for_record(seed, 0xba7c4 + u64::from(client), 0);
    let mut script = ClientScript::default();
    for _ in 0..ops {
        let idx = rng.gen_u64(cfg.papers);
        script.ops.push(QueuedOp::Get { key: PaperGen::paper_at(cfg, idx).id });
    }
    script
}

/// Sweep the batched-GET key-list size over the same seeded GET-only
/// workload on a freshly built, churned device per row (churn gives the
/// LSM overlapping C1 SSTs, the shape whose index-page walks batching
/// amortizes). Batching must never change *what* a GET returns — every
/// row's completions are asserted record-identical to the batch-1
/// baseline — only how many PE configurations and doorbells it costs.
pub(crate) fn batched_get_sweep(cfg: &LoadgenConfig) -> Vec<BatchedSweepPoint> {
    let batches: Vec<u32> =
        [1, 2, 4, 8, 16].iter().copied().filter(|&b| b == 1 || b <= cfg.batch).collect();
    let mut rows = Vec::with_capacity(batches.len());
    let mut baseline: Option<Vec<(u32, u32, Vec<u8>)>> = None;
    for &b in &batches {
        let mut ds = build_db(cfg.scale, DbKind::Ours);
        crate::figures::churn_c1(&mut ds, 7);
        let scripts: Vec<ClientScript> = (0..BATCHED_SWEEP_CLIENTS)
            .map(|c| get_script(&ds.cfg, cfg.seed, c, cfg.ops_per_client))
            .collect();
        let run_cfg =
            QueueRunConfig { depth: BATCHED_SWEEP_DEPTH, batch: b, ..QueueRunConfig::default() };
        let report = ds.db.run_queued("papers", &scripts, &run_cfg).expect("queued run succeeds");
        let mut records: Vec<(u32, u32, Vec<u8>)> =
            report.completions.iter().map(|c| (c.client, c.seq, c.payload.clone())).collect();
        records.sort_unstable();
        match &baseline {
            None => baseline = Some(records),
            Some(base) => assert_eq!(
                *base, records,
                "batch {b} must return the batch-1 records byte-for-byte"
            ),
        }
        rows.push(BatchedSweepPoint {
            batch: b,
            ops: report.ops(),
            span_s: ns_to_secs(report.finished_ns - report.started_ns),
            ops_per_sec: report.throughput_ops_per_sec(),
            coalesced_doorbells: report.queue.coalesced_doorbells,
            latency: report.latency.tail_summary(),
            speedup: 0.0,
        });
    }
    let t1 = rows.first().map(|r| r.ops_per_sec);
    for r in &mut rows {
        r.speedup = t1.map_or(0.0, |t| r.ops_per_sec / t);
    }
    rows
}

/// Bulk clients flooding whole-table scans in the QoS sweep.
const QOS_SWEEP_BULK_CLIENTS: u32 = 3;
/// Whole-table scans each bulk client issues.
const QOS_SWEEP_SCANS: u32 = 3;
/// Point lookups the latency-sensitive client issues: one window's
/// worth, all submitted at t=0 alongside the scan flood — the instant
/// where the priority heap actually re-orders dispatch (refilled
/// commands submit at distinct times and never tie).
const QOS_SWEEP_GETS: u32 = 4;
/// Per-client window for the QoS sweep: small enough that the GETs
/// genuinely contend with the scan flood for dispatch slots.
const QOS_SWEEP_DEPTH: u32 = 4;

/// Build the QoS-sweep scripts: [`QOS_SWEEP_BULK_CLIENTS`] clients each
/// issuing [`QOS_SWEEP_SCANS`] whole-table scans, plus one client of
/// [`QOS_SWEEP_GETS`] seeded point lookups. `prioritized` attaches the
/// QoS classes (scans [`Priority::Bulk`], GETs [`Priority::High`]);
/// off, every client stays [`Priority::Normal`] — the FIFO baseline.
fn qos_scripts(cfg: &PubGraphConfig, seed: u64, prioritized: bool) -> Vec<ClientScript> {
    let mut scripts = Vec::with_capacity(QOS_SWEEP_BULK_CLIENTS as usize + 1);
    for _ in 0..QOS_SWEEP_BULK_CLIENTS {
        let mut s = ClientScript::default();
        for _ in 0..QOS_SWEEP_SCANS {
            s.ops.push(QueuedOp::Scan {
                rules: vec![FilterRule { lane: paper_lanes::YEAR, op_code: 4, value: 0 }],
            });
        }
        if prioritized {
            s.priority = Priority::Bulk;
        }
        scripts.push(s);
    }
    let mut gets = get_script(cfg, seed, QOS_SWEEP_BULK_CLIENTS, QOS_SWEEP_GETS);
    if prioritized {
        gets.priority = Priority::High;
    }
    scripts.push(gets);
    scripts
}

/// Run the mixed-priority QoS sweep: the same seeded scan-flood + GET
/// workload on a freshly built device per row, once FIFO (all-Normal)
/// and once with priority classes. Priorities must never change *what*
/// a command returns — the rows are asserted record-identical — only
/// *when* the latency-sensitive GETs get dispatched, which the GET-p99
/// column makes visible.
pub(crate) fn qos_sweep(cfg: &LoadgenConfig) -> Vec<QosSweepPoint> {
    let mut rows = Vec::with_capacity(2);
    let mut baseline: Option<Vec<(u32, u32, Vec<u8>)>> = None;
    for (mode, prioritized) in [("fifo", false), ("priority", true)] {
        let mut ds = build_db(cfg.scale, DbKind::Ours);
        let scripts = qos_scripts(&ds.cfg, cfg.seed, prioritized);
        let run_cfg = QueueRunConfig { depth: QOS_SWEEP_DEPTH, ..QueueRunConfig::default() };
        let report = ds.db.run_queued("papers", &scripts, &run_cfg).expect("queued run succeeds");
        let mut records: Vec<(u32, u32, Vec<u8>)> =
            report.completions.iter().map(|c| (c.client, c.seq, c.payload.clone())).collect();
        records.sort_unstable();
        match &baseline {
            None => baseline = Some(records),
            Some(base) => assert_eq!(
                *base, records,
                "priority dispatch must return the FIFO records byte-for-byte"
            ),
        }
        let mut get_hist = LatencyHistogram::new();
        for c in report.completions.iter().filter(|c| c.client == QOS_SWEEP_BULK_CLIENTS) {
            get_hist.record(c.complete_ns - c.submit_ns);
        }
        rows.push(QosSweepPoint {
            mode,
            ops: report.ops(),
            span_s: ns_to_secs(report.finished_ns - report.started_ns),
            ops_per_sec: report.throughput_ops_per_sec(),
            get_p99_ms: get_hist.quantile(0.99) as f64 / 1e6,
            latency: report.latency.tail_summary(),
        });
    }
    rows
}

/// Sweep the refs-table SCAN over parallel PE job-stream counts on one
/// freshly built device (0 = the legacy serial dispatch). Every row must
/// match the same records — the plans only reshape the DES timeline —
/// and that invariant is asserted here, so the smoke diff doubles as an
/// equivalence gate.
pub(crate) fn parallel_sweep(scale: f64, streams: &[usize]) -> Vec<ParallelSweepPoint> {
    let mut ds = build_db(scale, DbKind::Ours);
    let rules = [FilterRule { lane: ref_lanes::YEAR, op_code: 4 /* ge */, value: 2000 }];
    let mut rows = Vec::with_capacity(streams.len());
    let mut baseline: Option<Vec<u8>> = None;
    for &s in streams {
        ds.db.set_parallel_pes("refs", s).expect("refs has enough PEs");
        let summary = ds.db.scan("refs", &rules, Backend::Hardware).expect("scan succeeds");
        match &baseline {
            None => baseline = Some(summary.records.clone()),
            Some(b) => assert_eq!(
                *b, summary.records,
                "parallel plans must match the serial records byte-for-byte"
            ),
        }
        rows.push(ParallelSweepPoint {
            streams: s,
            scan_ms: summary.report.sim_ns as f64 / 1e6,
            matched: summary.count,
            speedup: 0.0,
        });
    }
    ds.db.set_parallel_pes("refs", 0).expect("reset to serial");
    let t1 = rows.iter().find(|r| r.streams == 1).map(|r| r.scan_ms);
    for r in &mut rows {
        r.speedup = t1.map_or(0.0, |t| t / r.scan_ms);
    }
    rows
}

/// Repeated scans per cache-sweep point: enough for the warm scans to
/// dominate the p50 while the cold first scan sets p99.
const CACHE_SWEEP_SCANS: usize = 6;

/// Sweep the device-DRAM block cache budget from off to `cache_mb` MiB,
/// running the same selective refs SCAN `CACHE_SWEEP_SCANS` times per
/// point on a freshly built device. The cache must never change *what*
/// a scan returns — every row is asserted byte-identical to the
/// cache-off baseline — only *when* flash is touched, which the hit
/// rate and the p50/p99 split make visible.
pub(crate) fn cache_sweep(scale: f64, cache_mb: usize) -> Vec<CacheSweepPoint> {
    let mut budgets = vec![0, cache_mb / 4, cache_mb / 2, cache_mb];
    budgets.sort_unstable();
    budgets.dedup();
    let rules = [FilterRule { lane: ref_lanes::YEAR, op_code: 4 /* ge */, value: 2000 }];
    let mut rows = Vec::with_capacity(budgets.len());
    let mut baseline: Option<Vec<u8>> = None;
    for budget_mb in budgets {
        let mut ds = build_db(scale, DbKind::Ours);
        if budget_mb > 0 {
            ds.db.enable_cache(budget_mb << 20);
        }
        let mut hist = LatencyHistogram::new();
        for _ in 0..CACHE_SWEEP_SCANS {
            let summary = ds.db.scan("refs", &rules, Backend::Hardware).expect("scan succeeds");
            hist.record(summary.report.sim_ns);
            match &baseline {
                None => baseline = Some(summary.records.clone()),
                Some(b) => assert_eq!(
                    *b, summary.records,
                    "the cache must be invisible to results (budget {budget_mb} MiB)"
                ),
            }
        }
        let hit_rate = ds.db.cache_stats().map_or(0.0, |s| s.hit_rate());
        rows.push(CacheSweepPoint {
            budget_mb,
            hit_rate,
            p50_ms: hist.quantile(0.50) as f64 / 1e6,
            p99_ms: hist.quantile(0.99) as f64 / 1e6,
        });
    }
    rows
}

/// Render the figure as the stable text table the `repro` binary prints
/// (and the smoke test diffs).
pub fn render(fig: &LoadgenFigure) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let c = &fig.cfg;
    let _ = writeln!(
        out,
        "  depth={} ops/client={} seed={} scale={:.8}",
        c.depth, c.ops_per_client, c.seed, c.scale
    );
    let _ = writeln!(out, "  clients      ops   span(ms)      ops/s   stalls  latency");
    for p in &fig.points {
        let _ = writeln!(
            out,
            "  {:7} {:8} {:10.3} {:10.1} {:8}  {}",
            p.clients,
            p.ops,
            p.span_s * 1e3,
            p.ops_per_sec,
            p.full_stalls,
            p.latency
        );
    }
    if !fig.sweep.is_empty() {
        let _ = writeln!(out, "  parallel-PE sweep (refs SCAN, year >= 2000):");
        let _ = writeln!(out, "  streams   scan(ms)   matched   speedup");
        for r in &fig.sweep {
            let label = if r.streams == 0 { "serial".to_string() } else { r.streams.to_string() };
            let _ = writeln!(
                out,
                "  {:>7} {:10.3} {:9} {:8.2}x",
                label, r.scan_ms, r.matched, r.speedup
            );
        }
    }
    if !fig.cache.is_empty() {
        let _ = writeln!(out, "  DRAM cache sweep (refs SCAN x{CACHE_SWEEP_SCANS}, year >= 2000):");
        let _ = writeln!(out, "  budget(MB)   hit%    p50(ms)    p99(ms)");
        for r in &fig.cache {
            let label = if r.budget_mb == 0 { "off".to_string() } else { r.budget_mb.to_string() };
            let _ = writeln!(
                out,
                "  {:>10} {:6.1} {:10.3} {:10.3}",
                label,
                r.hit_rate * 100.0,
                r.p50_ms,
                r.p99_ms
            );
        }
    }
    if !fig.batched.is_empty() {
        let _ = writeln!(
            out,
            "  batched-GET sweep (GET-only, {BATCHED_SWEEP_CLIENTS} clients, \
             depth {BATCHED_SWEEP_DEPTH}):"
        );
        let _ =
            writeln!(out, "    batch      ops   span(ms)      ops/s  coalesced  speedup  latency");
        for r in &fig.batched {
            let _ = writeln!(
                out,
                "  {:7} {:8} {:10.3} {:10.1} {:10} {:7.2}x  {}",
                r.batch,
                r.ops,
                r.span_s * 1e3,
                r.ops_per_sec,
                r.coalesced_doorbells,
                r.speedup,
                r.latency
            );
        }
    }
    if !fig.qos.is_empty() {
        let _ = writeln!(
            out,
            "  QoS sweep ({QOS_SWEEP_BULK_CLIENTS} bulk scan clients + \
             {QOS_SWEEP_GETS} high-priority GETs, depth {QOS_SWEEP_DEPTH}):"
        );
        let _ = writeln!(out, "      mode      ops   span(ms)      ops/s  get-p99(ms)  latency");
        for r in &fig.qos {
            let _ = writeln!(
                out,
                "  {:>8} {:8} {:10.3} {:10.1} {:12.3}  {}",
                r.mode,
                r.ops,
                r.span_s * 1e3,
                r.ops_per_sec,
                r.get_p99_ms,
                r.latency
            );
        }
    }
    if !fig.cluster.is_empty() {
        let _ = writeln!(out, "  cluster matrix (clients x devices, hash-sharded):");
        let _ = writeln!(out, "  clients  devices      ops   span(ms)      ops/s  latency");
        for r in &fig.cluster {
            let _ = writeln!(
                out,
                "  {:7} {:8} {:8} {:10.3} {:10.1}  {}",
                r.clients,
                r.devices,
                r.ops,
                r.span_s * 1e3,
                r.ops_per_sec,
                r.latency
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCALE: f64 = 1.0 / 2048.0;

    #[test]
    fn scripts_are_seed_deterministic_and_mixed() {
        let cfg = PubGraphConfig::scaled(SCALE);
        let a = client_script(&cfg, 7, 3, 200);
        let b = client_script(&cfg, 7, 3, 200);
        assert_eq!(a.ops.len(), b.ops.len());
        let kind = |o: &QueuedOp| match o {
            QueuedOp::Get { .. } => 0,
            QueuedOp::Put { .. } => 1,
            QueuedOp::Scan { .. } => 2,
        };
        let ka: Vec<u8> = a.ops.iter().map(kind).collect();
        let kb: Vec<u8> = b.ops.iter().map(kind).collect();
        assert_eq!(ka, kb, "same seed, same script");
        assert!(ka.contains(&0) && ka.contains(&1) && ka.contains(&2), "all op kinds present");
        let c = client_script(&cfg, 7, 4, 200);
        let kc: Vec<u8> = c.ops.iter().map(kind).collect();
        assert_ne!(ka, kc, "clients draw from distinct streams");
    }

    #[test]
    fn throughput_scales_then_saturates() {
        // The acceptance criterion: GET/SCAN throughput grows with the
        // client count until the flash LUNs / PE pool saturate. Depth 1
        // isolates the client-count axis — each client is strictly
        // closed-loop, so added throughput can only come from commands
        // of *different* clients overlapping on disjoint resources.
        let fig = loadgen(&LoadgenConfig {
            scale: SCALE,
            clients: vec![1, 8, 32],
            depth: 1,
            ops_per_client: 48,
            seed: 42,
            cache_mb: 0,
            devices: Vec::new(),
            batch: 1,
            qos: false,
        });
        let t: Vec<f64> = fig.points.iter().map(|p| p.ops_per_sec).collect();
        assert!(t[1] > 1.5 * t[0], "8 clients should clearly out-run 1 client: {t:?}");
        assert!(t[2] < 1.5 * t[1], "by 32 clients the shared flash/PE resources saturate: {t:?}");
        assert!(t[2] > 0.7 * t[1], "saturation is a plateau, not a collapse: {t:?}");
    }

    #[test]
    fn render_is_byte_stable_for_a_seed() {
        let cfg = LoadgenConfig {
            scale: SCALE,
            clients: vec![1, 2],
            depth: 4,
            ops_per_client: 8,
            seed: 7,
            cache_mb: 0,
            devices: Vec::new(),
            batch: 1,
            qos: false,
        };
        let a = render(&loadgen(&cfg));
        let b = render(&loadgen(&cfg));
        assert_eq!(a, b);
        assert!(a.contains("clients"), "{a}");
        assert!(a.contains("p99.9="), "latency column reports the p99.9 tail: {a}");
        assert!(a.contains("parallel-PE sweep"), "{a}");
        assert!(!a.contains("DRAM cache sweep"), "cache_mb=0 skips the cache sweep: {a}");
        assert!(!a.contains("cluster matrix"), "an empty devices list skips the matrix: {a}");
        assert!(!a.contains("batched-GET sweep"), "batch=1 skips the batched sweep: {a}");
        assert!(!a.contains("QoS sweep"), "qos=false skips the QoS sweep: {a}");
    }

    #[test]
    fn qos_sweep_shrinks_the_get_tail_without_changing_records() {
        let rows = qos_sweep(&LoadgenConfig { scale: SCALE, seed: 42, ..LoadgenConfig::default() });
        assert_eq!(rows.len(), 2);
        let fifo = &rows[0];
        let qos = &rows[1];
        assert_eq!(fifo.mode, "fifo");
        assert_eq!(qos.mode, "priority");
        // Record equality across modes is asserted inside qos_sweep;
        // here we gate the latency win the priority heap exists for.
        assert_eq!(fifo.ops, qos.ops, "both modes complete the same commands");
        assert!(
            qos.get_p99_ms < fifo.get_p99_ms,
            "high-priority GETs must beat the FIFO tail: {:.3} ms vs {:.3} ms",
            qos.get_p99_ms,
            fifo.get_p99_ms
        );
        // Seeded determinism: rerunning reproduces the rows bit for bit.
        let again =
            qos_sweep(&LoadgenConfig { scale: SCALE, seed: 42, ..LoadgenConfig::default() });
        assert_eq!(rows[1].get_p99_ms, again[1].get_p99_ms);
        assert_eq!(rows[1].latency, again[1].latency);
    }

    #[test]
    fn batched_get_sweep_holds_the_queued_speedup_floor() {
        let rows = batched_get_sweep(&LoadgenConfig {
            scale: SCALE,
            ops_per_client: 32,
            seed: 42,
            batch: 16,
            ..LoadgenConfig::default()
        });
        assert_eq!(rows.iter().map(|r| r.batch).collect::<Vec<_>>(), [1, 2, 4, 8, 16]);
        let (one, sixteen) = (&rows[0], &rows[4]);
        // Record equality across rows is asserted inside the sweep.
        assert_eq!(one.ops, sixteen.ops, "every row completes the same commands");
        // The queued baseline already overlaps ops at depth 16, so its
        // honest win is smaller than the serial >= 5x that
        // `figures::tests::batched_key_lists_cut_the_config_tax_and_the_per_key_time`
        // holds.
        assert!(
            sixteen.speedup >= 4.0,
            "batch-16 key lists must keep 4x the batch-1 GET throughput: {rows:?}"
        );
    }

    #[test]
    fn cluster_matrix_scales_with_devices() {
        let cfg = LoadgenConfig {
            scale: SCALE,
            clients: vec![2],
            depth: 4,
            ops_per_client: 32,
            seed: 42,
            cache_mb: 0,
            devices: vec![1, 4],
            batch: 1,
            qos: false,
        };
        let rows = cluster_matrix(&cfg);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].devices, 1);
        assert_eq!(rows[1].devices, 4);
        assert_eq!(rows[0].ops, rows[1].ops, "every cell issues the same logical work");
        assert!(
            rows[1].ops_per_sec >= 2.5 * rows[0].ops_per_sec,
            "4 hash shards must clearly out-run 1 device: {:.1} vs {:.1} ops/s",
            rows[1].ops_per_sec,
            rows[0].ops_per_sec
        );
        assert!(cluster_matrix(&LoadgenConfig::default()).is_empty(), "no devices, no matrix");
    }

    #[test]
    fn traced_matrix_matches_untraced_rows_and_emits_a_merged_trace() {
        let cfg = LoadgenConfig {
            scale: SCALE,
            clients: vec![2],
            depth: 4,
            ops_per_client: 24,
            seed: 42,
            cache_mb: 0,
            devices: vec![1, 2],
            batch: 1,
            qos: false,
        };
        let (rows, trace) = cluster_matrix_traced(&cfg, true);
        // Observability is timing-invisible: the traced rows are the
        // untraced rows.
        assert_eq!(rows, cluster_matrix(&cfg), "tracing must not move the numbers");
        let json = trace.expect("last cell traced");
        // Both devices of the 2-shard cell appear in their own pid
        // namespaces, and the router narrates the fan-out.
        assert!(json.contains(&format!("\"pid\":{}", cosmos_sim::DEVICE_PID_STRIDE + 100)));
        assert!(json.contains(&format!("\"pid\":{}", cosmos_sim::ROUTER_PID)));
        assert!(json.contains("router_fanout"), "{}", &json[..json.len().min(400)]);
        assert!(json.contains("router_merge"));
        assert!(cluster_matrix_traced(&cfg, false).1.is_none(), "no trace unless asked");
    }

    #[test]
    fn cache_sweep_hits_and_speeds_up_warm_scans() {
        let rows = cache_sweep(SCALE, 8);
        let off = rows.first().expect("budget 0 row");
        let full = rows.last().expect("full-budget row");
        assert_eq!(off.budget_mb, 0);
        assert_eq!(full.budget_mb, 8);
        assert!(off.hit_rate == 0.0, "cache off cannot hit: {:?}", off);
        assert!(
            full.hit_rate >= 0.5,
            "repeated scans must warm the cache past the acceptance bar: {:?}",
            full
        );
        assert!(
            full.p50_ms < off.p50_ms,
            "warm DRAM reads must beat flash on the median scan: {:.3} ms vs {:.3} ms",
            full.p50_ms,
            off.p50_ms
        );
        assert!(
            full.p99_ms > full.p50_ms,
            "the cold first scan should stretch the tail: {:?}",
            full
        );
    }

    #[test]
    fn parallel_sweep_speeds_up_and_matches_serial() {
        let rows = parallel_sweep(SCALE, &[0, 1, 4]);
        assert_eq!(rows.len(), 3);
        let serial = &rows[0];
        let one = &rows[1];
        let four = &rows[2];
        assert_eq!(serial.matched, one.matched, "plans only reshape the timeline");
        assert_eq!(serial.matched, four.matched);
        assert!(
            four.scan_ms < 0.8 * one.scan_ms,
            "4 job streams must clearly beat 1: {:.3} ms vs {:.3} ms",
            four.scan_ms,
            one.scan_ms
        );
        assert!(four.speedup > 1.25, "speedup column is t1/t: {}", four.speedup);
        assert!((one.speedup - 1.0).abs() < 1e-9);
    }
}
