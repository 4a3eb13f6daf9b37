//! Experiment implementations, one per table/figure of the paper.

use crate::dataset::{build_db, paper_records, paper_table_config, Dataset, DbKind};
use cosmos_sim::ns_to_secs;
use ndp_ir::elaborate;
use ndp_pe::oracle::FilterRule;
use ndp_pe::template::{pe_report, system_report, PePopulation, PeVariant, SystemReport};
use ndp_workload::spec::{paper_lanes, ref_lanes, PAPER_PE, PAPER_REF_SPEC, REF_PE};
use ndp_workload::PaperGen;
use nkv::Backend;

/// Operator codes of the standard set (ndp-ir encodings).
mod ops {
    pub(crate) const EQ: u32 = 2;
    pub(crate) const GE: u32 = 4;
}

// ---------------------------------------------------------------- Fig. 7a

/// GET runtimes (milliseconds, averaged over `n_gets` point lookups).
#[derive(Debug, Clone, Copy)]
pub struct Fig7a {
    pub base_sw_ms: f64,
    pub base_hw_ms: f64,
    pub ours_sw_ms: f64,
    pub ours_hw_ms: f64,
    pub n_gets: u32,
}

/// Run the GET experiment at `scale` (dataset size barely affects GET —
/// it reads a fixed number of index/data blocks).
///
/// The LSM is first churned into the shape the paper describes: several
/// overlapping `C1` SSTs on top of the bulk-loaded deeper level, so every
/// GET traverses "all index blocks of every SST from C1 ... followed by a
/// single index block in the remaining components" (Sec. III-A).
pub fn fig7a(scale: f64, n_gets: u32) -> Fig7a {
    let mut base = build_db(scale, DbKind::Baseline);
    let mut ours = build_db(scale, DbKind::Ours);
    for ds in [&mut base, &mut ours] {
        churn_c1(ds, 7);
    }
    let run = |ds: &mut Dataset, mode: Backend| -> f64 {
        let mut total_ns = 0u64;
        for i in 0..n_gets {
            // Deterministic existing keys spread over the table.
            let idx = (u64::from(i) * 7919) % ds.cfg.papers;
            let p = PaperGen::paper_at(&ds.cfg, idx);
            let (rec, rep) = ds.db.get("papers", p.id, mode).expect("get succeeds");
            assert!(rec.is_some(), "key {} must exist", p.id);
            total_ns += rep.sim_ns;
        }
        total_ns as f64 / f64::from(n_gets) / 1e6
    };
    Fig7a {
        base_sw_ms: run(&mut base, Backend::Software),
        base_hw_ms: run(&mut base, Backend::Hardware),
        ours_sw_ms: run(&mut ours, Backend::Software),
        ours_hw_ms: run(&mut ours, Backend::Hardware),
        n_gets,
    }
}

/// Create `n` overlapping C1 SSTs by re-putting key-range-spanning
/// updates and flushing (no compaction happens on flush, per the paper).
pub(crate) fn churn_c1(ds: &mut Dataset, n: usize) {
    let span = ds.cfg.papers;
    for round in 0..n {
        for j in 0..16u64 {
            // Keys spanning the whole range (both endpoints included) so
            // each C1 SST's key range covers every GET, forcing its index
            // block to be read.
            let _ = round;
            let idx = j * (span - 1) / 15;
            let p = PaperGen::paper_at(&ds.cfg, idx);
            let mut rec = Vec::with_capacity(80);
            p.encode_into(&mut rec);
            ds.db.put("papers", rec).expect("churn put");
        }
        ds.db.flush("papers").expect("churn flush");
    }
}

// ---------------------------------------------------------------- Fig. 7b

/// SCAN runtimes in simulated seconds **at the measured scale**
/// (`scale = 1.0` reproduces the paper's absolute numbers; smaller scales
/// are proportional in the streaming terms but keep the constant per-op
/// overheads, so naive division over-extrapolates them — the repro
/// binary documents this next to its output).
#[derive(Debug, Clone, Copy)]
pub struct Fig7b {
    pub base_sw_s: f64,
    pub base_hw_s: f64,
    pub ours_sw_s: f64,
    pub ours_hw_s: f64,
    /// Scale the measurement ran at (1.0 = full).
    pub scale: f64,
    /// Records matched by the predicate (ours, HW run).
    pub matched: u64,
}

/// The evaluation SCAN: a value predicate over both tables
/// (papers published in 2019 or later plus the references made in 1980),
/// executed by 1 paper-PE and 7 ref-PEs as in the paper's system.
pub fn fig7b(scale: f64) -> Fig7b {
    let mut base = build_db(scale, DbKind::Baseline);
    let mut ours = build_db(scale, DbKind::Ours);
    let run = |ds: &mut Dataset, mode: Backend| -> (f64, u64) {
        let papers = ds
            .db
            .scan(
                "papers",
                &[FilterRule { lane: paper_lanes::YEAR, op_code: ops::GE, value: 2019 }],
                mode,
            )
            .expect("papers scan succeeds");
        let refs = ds
            .db
            .scan(
                "refs",
                &[FilterRule { lane: ref_lanes::YEAR, op_code: ops::EQ, value: 1980 }],
                mode,
            )
            .expect("refs scan succeeds");
        // The device executes the two table scans back-to-back and both
        // saturate the aggregate flash bandwidth, so the sum equals the
        // overlapped full-dataset scan.
        let total = papers.report.sim_ns + refs.report.sim_ns;
        (ns_to_secs(total), papers.count + refs.count)
    };
    let (base_sw_s, _) = run(&mut base, Backend::Software);
    let (base_hw_s, _) = run(&mut base, Backend::Hardware);
    let (ours_sw_s, _) = run(&mut ours, Backend::Software);
    let (ours_hw_s, matched) = run(&mut ours, Backend::Hardware);
    Fig7b { base_sw_s, base_hw_s, ours_sw_s, ours_hw_s, scale, matched }
}

// ---------------------------------------------------------------- Table I

/// Both system compositions of Table I.
#[derive(Debug, Clone)]
pub struct Table1 {
    pub ours: SystemReport,
    pub base: SystemReport,
    /// Per-PE rows: (name, \[1\] slices, ours slices).
    pub pe_rows: Vec<(String, u32, u32)>,
}

/// Compute Table I: the complete Cosmos+ design with 1 paper-PE and
/// 7 ref-PEs, hand-crafted vs generated.
pub fn table1() -> Table1 {
    let module = ndp_spec::parse(PAPER_REF_SPEC).expect("bundled spec parses");
    let paper = elaborate(&module, PAPER_PE).expect("bundled spec elaborates");
    let r#ref = elaborate(&module, REF_PE).expect("bundled spec elaborates");
    let mk = |variant| {
        system_report(&[
            PePopulation { cfg: paper.clone(), variant, count: 1 },
            PePopulation { cfg: r#ref.clone(), variant, count: 7 },
        ])
    };
    let ours = mk(PeVariant::Generated);
    let base = mk(PeVariant::HandCrafted);
    let pe_rows = vec![
        (
            "paper-PE".to_string(),
            pe_report(&paper, PeVariant::HandCrafted).slices_in_context,
            pe_report(&paper, PeVariant::Generated).slices_in_context,
        ),
        (
            "ref-PE".to_string(),
            pe_report(&r#ref, PeVariant::HandCrafted).slices_in_context,
            pe_report(&r#ref, PeVariant::Generated).slices_in_context,
        ),
    ];
    Table1 { ours, base, pe_rows }
}

// ---------------------------------------------------------------- Fig. 8

/// One Fig. 8 point: tuple width and OOC slices for Full and Half.
#[derive(Debug, Clone, Copy)]
pub struct Fig8Row {
    pub tuple_bits: u32,
    pub full_slices: u32,
    pub half_slices: u32,
}

/// Specification text of a Fig. 8 "Full" PE (all-u32 struct).
pub(crate) fn fig8_full_spec(bits: u32) -> String {
    let fields: Vec<String> = (0..bits / 32).map(|i| format!("uint32_t f{i};")).collect();
    format!(
        "/* @autogen define parser F with input = T, output = T */
         typedef struct {{ {} }} T;",
        fields.join(" ")
    )
}

/// Specification text of a Fig. 8 "Half" PE: same tuple size, half the
/// data discarded through a string prefix.
pub(crate) fn fig8_half_spec(bits: u32) -> String {
    let n = bits / 64 - 1;
    let string_len = bits / 16 + 4;
    let fields: Vec<String> = (0..n).map(|i| format!("uint32_t f{i};")).collect();
    format!(
        "/* @autogen define parser F with input = T, output = T */
         typedef struct {{ {} /* @string(prefix = 4) */ uint8_t s[{}]; }} T;",
        fields.join(" "),
        string_len
    )
}

/// Out-of-context slice utilization vs tuple size, 64..1024 bit
/// (paper's Fig. 8).
pub fn fig8() -> Vec<Fig8Row> {
    [64u32, 128, 256, 512, 1024]
        .iter()
        .map(|&bits| {
            let full = figure_pe(&fig8_full_spec(bits));
            let half = figure_pe(&fig8_half_spec(bits));
            Fig8Row {
                tuple_bits: bits,
                full_slices: pe_report(&full, PeVariant::Generated).slices_out_of_context,
                half_slices: pe_report(&half, PeVariant::Generated).slices_out_of_context,
            }
        })
        .collect()
}

/// The `F` parser of a Fig. 8/9 specification.
fn figure_pe(spec: &str) -> ndp_ir::PeConfig {
    elaborate(&ndp_spec::parse(spec).expect("figure spec parses"), "F")
        .expect("figure spec elaborates")
}

// ---------------------------------------------------------------- Fig. 9

/// One Fig. 9 point: stage count and OOC utilization percentage.
#[derive(Debug, Clone, Copy)]
pub struct Fig9Row {
    pub stages: u32,
    pub full_pct: f64,
    pub half_pct: f64,
}

/// OOC slice percentage vs number of filtering stages (256-bit struct,
/// Full and Half variants; paper's Fig. 9).
pub fn fig9() -> Vec<Fig9Row> {
    let available = f64::from(ndp_hdl::XC7Z045::SLICES);
    (1..=5)
        .map(|stages| {
            let mk = |spec: &str| {
                let spec = spec.replace(
                    "define parser F with",
                    &format!("define parser F with stages = {stages},"),
                );
                f64::from(pe_report(&figure_pe(&spec), PeVariant::Generated).slices_out_of_context)
                    / available
                    * 100.0
            };
            Fig9Row {
                stages,
                full_pct: mk(&fig8_full_spec(256)),
                half_pct: mk(&fig8_half_spec(256)),
            }
        })
        .collect()
}

// --------------------------------------------------------------- Profile

/// Output of the observability demo (`repro -- profile`): op metrics,
/// per-op time breakdowns and the flash-occupancy measurement, all from
/// the device's own counters/trace rather than external bookkeeping.
#[derive(Debug, Clone)]
pub struct Profile {
    /// The device's own stats snapshot (histograms + health).
    pub stats: nkv::DeviceStats,
    /// GETs profiled.
    pub n_gets: u32,
    /// Fraction of the SCAN's wall time the flash-controller DMA stage
    /// was busy (averaged over the controllers); ≈1.0 when flash-bound.
    pub scan_flash_occupancy: f64,
    /// Spans captured device-wide.
    pub trace: Vec<cosmos_sim::TraceEvent>,
    /// The captured spans, exported as Chrome `trace_event` JSON.
    pub trace_json: String,
}

/// Run the profiling demo: a churned GET workload plus one full SCAN on
/// the refs table, with the whole observability stack enabled (metrics,
/// tracing, PE perf counters are all orthogonal to timing). `scale` is
/// capped like the ablations — profiling needs shape, not volume.
pub fn profile(scale: f64, n_gets: u32) -> Profile {
    let scale = scale.min(1.0 / 64.0);
    let mut ds = build_db(scale, DbKind::Ours);
    churn_c1(&mut ds, 7);
    ds.db.enable_observability(1 << 20);

    for i in 0..n_gets {
        let idx = (u64::from(i) * 7919) % ds.cfg.papers;
        let p = PaperGen::paper_at(&ds.cfg, idx);
        let (rec, _) = ds.db.get("papers", p.id, Backend::Hardware).expect("get succeeds");
        assert!(rec.is_some(), "key {} must exist", p.id);
    }

    let busy0 = ds.db.platform_mut().flash.controller_busy_ns();
    let scan = ds
        .db
        .scan(
            "refs",
            &[FilterRule { lane: ref_lanes::YEAR, op_code: ops::EQ, value: 1980 }],
            Backend::Hardware,
        )
        .expect("refs scan succeeds");
    let busy1 = ds.db.platform_mut().flash.controller_busy_ns();
    let controllers = u64::from(ds.db.platform_mut().flash.config().controllers);
    let scan_flash_occupancy = (busy1 - busy0) as f64 / (scan.report.sim_ns * controllers) as f64;

    let stats = ds.db.device_stats();
    let trace = ds.db.take_trace();
    let trace_json = cosmos_sim::chrome_trace_json(&trace);
    Profile { stats, n_gets, scan_flash_occupancy, trace, trace_json }
}

/// The profiling GET schedule's keys, deduplicated in first-seen order
/// (a key list rejects duplicates, and the unbatched profile GETs the
/// same record twice without noticing).
fn profile_get_keys(cfg: &ndp_workload::PubGraphConfig, n_gets: u32) -> Vec<u64> {
    let mut keys = Vec::new();
    for i in 0..n_gets {
        let idx = (u64::from(i) * 7919) % cfg.papers;
        let key = PaperGen::paper_at(cfg, idx).id;
        if !keys.contains(&key) {
            keys.push(key);
        }
    }
    keys
}

/// The batched counterpart of [`profile`]'s GET measurement: the same
/// churned database and deterministic key schedule, but the keys go
/// through `multi_get` in `batch`-sized key lists, so one PE
/// configuration (plus per-key START strobes) serves the whole list.
#[derive(Debug, Clone, Copy)]
pub struct BatchedTax {
    /// Keys per key-list descriptor.
    pub batch: u32,
    /// Keys actually issued (the profile schedule, deduplicated).
    pub n_gets: u32,
    /// `cfg_ns / nvme_ns` over the batched run — the same metric as the
    /// unbatched `config_tax_ratio`, directly comparable.
    pub config_tax_ratio: f64,
    /// Config-register busy time per key, microseconds.
    pub cfg_us_per_get: f64,
    /// Result/descriptor NVMe transfer busy time per key, microseconds.
    pub nvme_us_per_get: f64,
    /// Flash busy time per key, microseconds (the shared-index-page win
    /// shows up here, not in the config column).
    pub flash_us_per_get: f64,
    /// Mean simulated device time per key, microseconds.
    pub us_per_get: f64,
}

/// Measure the batched GET config tax: same dataset, churn and key
/// schedule as [`profile`], issued as `batch`-sized key lists.
pub fn profile_batched_tax(scale: f64, n_gets: u32, batch: u32) -> BatchedTax {
    let scale = scale.min(1.0 / 64.0);
    let mut ds = build_db(scale, DbKind::Ours);
    churn_c1(&mut ds, 7);
    ds.db.enable_observability(1 << 20);
    let keys = profile_get_keys(&ds.cfg, n_gets);
    let mut total_ns = 0u64;
    for chunk in keys.chunks(batch.max(1) as usize) {
        let (results, report) =
            ds.db.multi_get("papers", chunk, Backend::Hardware).expect("batched get succeeds");
        total_ns += report.sim_ns;
        for r in results {
            assert!(r.expect("per-key get succeeds").is_some(), "profiled keys must exist");
        }
    }
    let n = keys.len() as u32;
    let stats = ds.db.device_stats();
    let get = stats.metrics.op(nkv::OpKind::Get);
    let per_get = |ns: u64| ns as f64 / f64::from(n) / 1e3;
    BatchedTax {
        batch,
        n_gets: n,
        config_tax_ratio: get.breakdown.cfg_ns as f64 / get.breakdown.nvme_ns.max(1) as f64,
        cfg_us_per_get: per_get(get.breakdown.cfg_ns),
        nvme_us_per_get: per_get(get.breakdown.nvme_ns),
        flash_us_per_get: per_get(get.breakdown.flash_ns),
        us_per_get: total_ns as f64 / f64::from(n) / 1e3,
    }
}

/// Fleet-scope profile (`repro profile --devices N`): the same GET+SCAN
/// workload pushed through an N-device hash-sharded cluster with the
/// fleet observability stack on, returning the folded [`nkv::ClusterStats`]
/// and the merged multi-device Chrome trace.
#[derive(Debug, Clone)]
pub struct ClusterProfile {
    pub devices: usize,
    pub stats: nkv::ClusterStats,
    /// Merged Chrome `trace_event` export: per-device pid namespaces
    /// plus the router's synthetic fan-out/wait/merge spans.
    pub trace_json: String,
}

/// Run the fleet profiling demo: bulk-load the papers table into an
/// N-device cluster, enable observability *after* the load (the flame
/// graph should show the foreground ops, not a million bulk-load flash
/// programs), issue `n_gets` GETs plus one fleet-wide SCAN, and fold.
pub fn cluster_profile(scale: f64, n_gets: u32, devices: usize) -> ClusterProfile {
    use nkv::Backend;
    let scale = scale.min(1.0 / 64.0);
    let pub_cfg = ndp_workload::PubGraphConfig::scaled(scale);
    let mut cluster =
        nkv::NkvCluster::new(nkv::ClusterConfig { devices, ..nkv::ClusterConfig::default() })
            .expect("cluster config is valid");
    cluster
        .create_table("papers", paper_table_config(PeVariant::Generated))
        .expect("table config is valid");
    cluster.bulk_load("papers", paper_records(pub_cfg)).expect("bulk load succeeds");
    cluster.persist().expect("persist succeeds");
    cluster.enable_observability(1 << 20);

    for i in 0..n_gets {
        let idx = (u64::from(i) * 7919) % pub_cfg.papers;
        let p = PaperGen::paper_at(&pub_cfg, idx);
        let got = cluster.get("papers", p.id, Backend::Hardware).expect("get succeeds");
        assert!(got.record.is_some(), "key {} must exist", p.id);
    }
    let rules = vec![FilterRule { lane: paper_lanes::YEAR, op_code: ops::GE, value: 2019 }];
    cluster
        .execute("papers", &nkv::LogicalOp::Scan { rules }, Backend::Hardware)
        .expect("fleet scan succeeds");

    let stats = cluster.cluster_stats();
    let (devs, router) = cluster.take_cluster_trace();
    let trace_json = cosmos_sim::chrome_trace_json_cluster(&devs, &router);
    ClusterProfile { devices, stats, trace_json }
}

// ------------------------------------------------------------- Ablations

/// SCAN time (extrapolated to full scale) vs ref-PE count.
pub fn ablation_pe_count(scale: f64, counts: &[usize]) -> Vec<(usize, f64)> {
    counts
        .iter()
        .map(|&n| {
            let module = ndp_spec::parse(PAPER_REF_SPEC).expect("bundled spec parses");
            let ref_pe = elaborate(&module, REF_PE).expect("bundled spec elaborates");
            let mut db = nkv::NkvDb::default_db();
            let mut cfg = nkv::TableConfig::new(ref_pe);
            cfg.n_pes = n;
            cfg.unique_keys = false;
            db.create_table("refs", cfg).expect("table config is valid");
            let gen_cfg = ndp_workload::PubGraphConfig::scaled(scale);
            let mut buf = Vec::new();
            db.bulk_load(
                "refs",
                ndp_workload::RefGen::new(gen_cfg).map(|r| {
                    buf.clear();
                    r.encode_into(&mut buf);
                    buf.clone()
                }),
            )
            .expect("bulk load succeeds");
            let s = db
                .scan(
                    "refs",
                    &[FilterRule { lane: ref_lanes::YEAR, op_code: ops::EQ, value: 1980 }],
                    Backend::Hardware,
                )
                .expect("hardware scan succeeds");
            (n, ns_to_secs(s.report.sim_ns) / scale)
        })
        .collect()
}

/// DRAM write traffic (bytes, at scale) of flexible vs fixed Store
/// Units — the Table-I growth justification ("reducing the number of
/// memory accesses will improve the performance").
pub fn ablation_store_traffic(scale: f64) -> (u64, u64) {
    let run = |kind: DbKind| -> u64 {
        let mut ds = build_db(scale, kind);
        ds.db
            .scan(
                "refs",
                &[FilterRule { lane: ref_lanes::YEAR, op_code: ops::EQ, value: 1980 }],
                Backend::Hardware,
            )
            .expect("hardware scan succeeds");
        ds.db.platform_mut().dram.traffic_of(cosmos_sim::dram::DramClient::PeStore)
    };
    (run(DbKind::Ours), run(DbKind::Baseline))
}

/// Aggregate pushdown (the paper's future-work direction, implemented):
/// host bytes moved by a filtering SCAN vs an on-device aggregate SCAN
/// answering the same analytical question ("how many references were made
/// in 1980?"). Returns `(scan_result_bytes, aggregate_result_bytes,
/// scan_s, aggregate_s)` at the given scale.
pub fn ablation_aggregate_pushdown(scale: f64) -> (u64, u64, f64, f64) {
    use ndp_ir::AggOp;
    let module = ndp_spec::parse(
        "/* @autogen define parser RefAgg with chunksize = 32,
            input = Ref, output = Ref, aggregate = { count, sum, min, max } */
         typedef struct { uint64_t src; uint64_t dst; uint32_t year; } Ref;",
    )
    .expect("bundled spec parses");
    let pe = elaborate(&module, "RefAgg").expect("bundled spec elaborates");
    let mut db = nkv::NkvDb::default_db();
    let mut cfg = nkv::TableConfig::new(pe);
    cfg.n_pes = 7;
    cfg.unique_keys = false;
    db.create_table("refs", cfg).expect("table config is valid");
    let gen_cfg = ndp_workload::PubGraphConfig::scaled(scale);
    let mut buf = Vec::new();
    db.bulk_load(
        "refs",
        ndp_workload::RefGen::new(gen_cfg).map(|r| {
            buf.clear();
            r.encode_into(&mut buf);
            buf.clone()
        }),
    )
    .expect("bulk load succeeds");
    let rules = [FilterRule { lane: ref_lanes::YEAR, op_code: ops::EQ, value: 1980 }];
    let full = db.scan("refs", &rules, Backend::Hardware).expect("hardware scan succeeds");
    let (count, _, agg_rep) = db
        .scan_aggregate("refs", &rules, AggOp::Count, 0, Backend::Hardware)
        .expect("the PEs carry count");
    assert_eq!(count, full.count, "both answers must agree");
    (
        full.report.result_bytes,
        agg_rep.result_bytes,
        ns_to_secs(full.report.sim_ns),
        ns_to_secs(agg_rep.sim_ns),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCALE: f64 = 1.0 / 2048.0;

    #[test]
    fn fig7a_shape_hw_near_sw_and_ours_slower_than_base() {
        let f = fig7a(SCALE, 6);
        // HW does not profit on GET (both compositions).
        assert!((0.7..1.6).contains(&(f.base_hw_ms / f.base_sw_ms)), "{f:?}");
        assert!((0.7..1.6).contains(&(f.ours_hw_ms / f.ours_sw_ms)), "{f:?}");
        // Updated firmware makes ours ~10% slower than [1].
        let ratio = f.ours_sw_ms / f.base_sw_ms;
        assert!((1.02..1.35).contains(&ratio), "firmware tax ratio {ratio} out of band");
    }

    #[test]
    fn fig7b_shape_hw_beats_sw_and_delta_is_small() {
        let f = fig7b(SCALE);
        assert!(f.ours_hw_s < f.ours_sw_s, "{f:?}");
        assert!(f.base_hw_s < f.base_sw_s, "{f:?}");
        // Generated and hand-crafted PEs perform at parity (the paper's
        // headline: +0.018 s on 5.512 s). At this tiny test scale the
        // constant overheads of both variants (firmware per-op cost vs
        // software tail-block handling) dominate the delta, so only
        // near-parity is asserted here; the repro binary at realistic
        // scales shows ours marginally slower, matching the paper.
        let delta = (f.ours_hw_s - f.base_hw_s).abs() / f.base_hw_s;
        assert!(delta < 0.25, "{f:?}");
    }

    #[test]
    fn table1_matches_paper_anchors() {
        let t = table1();
        assert_eq!(t.pe_rows[0].1, 9480, "paper-PE [1]");
        assert!((i64::from(t.pe_rows[0].2) - 14348).abs() <= 90, "paper-PE ours");
        assert_eq!(t.pe_rows[1].1, 1277, "ref-PE [1]");
        assert!((i64::from(t.pe_rows[1].2) - 1446).abs() <= 15, "ref-PE ours");
        assert!((i64::from(t.ours.overall_slices) - 41934).abs() <= 300);
        assert!((i64::from(t.base.overall_slices) - 40821).abs() <= 300);
    }

    #[test]
    fn fig8_grows_and_half_converges() {
        let rows = fig8();
        assert!(rows.windows(2).all(|w| w[1].full_slices > w[0].full_slices));
        let first = f64::from(rows[0].half_slices) / f64::from(rows[0].full_slices);
        let last = f64::from(rows[4].half_slices) / f64::from(rows[4].full_slices);
        assert!(first > 1.0, "Half costs more at 64 bit");
        assert!(last < first, "prefixing pays off with size");
    }

    #[test]
    fn fig9_is_linear_with_small_slope() {
        let rows = fig9();
        let deltas: Vec<f64> = rows.windows(2).map(|w| w[1].full_pct - w[0].full_pct).collect();
        let mean = deltas.iter().sum::<f64>() / deltas.len() as f64;
        for d in &deltas {
            assert!((d - mean).abs() / mean < 0.05, "non-linear: {deltas:?}");
        }
        assert!(mean / rows[0].full_pct < 0.25, "stage cost must be small vs fixed part");
        // Half has only minor impact (paper, Fig. 9 caption).
        for r in &rows {
            assert!((r.half_pct - r.full_pct).abs() / r.full_pct < 0.10);
        }
    }

    #[test]
    fn profile_shows_get_config_tax_and_flash_bound_scan() {
        let p = profile(1.0 / 512.0, 4);
        let get = p.stats.metrics.op(nkv::OpKind::Get);
        assert_eq!(get.ops, 4);
        // Fig. 7(a)'s explanation, measured from the device's own
        // breakdown: GET spends more time on PE config registers than
        // moving its result data.
        assert!(
            get.breakdown.cfg_ns >= get.breakdown.nvme_ns,
            "cfg {} < data {}",
            get.breakdown.cfg_ns,
            get.breakdown.nvme_ns
        );
        // The SCAN is flash-bound: controller DMA busy ≈ the whole scan.
        assert!(
            (0.90..=1.01).contains(&p.scan_flash_occupancy),
            "occupancy {}",
            p.scan_flash_occupancy
        );
        assert!(!p.trace.is_empty());
        assert!(p.trace_json.starts_with("{\"traceEvents\":["));
        assert!(p.stats.metrics.op(nkv::OpKind::Scan).breakdown.pe_ns > 0);
    }

    #[test]
    fn batched_key_lists_cut_the_config_tax_and_the_per_key_time() {
        // The settings `profile_smoke.txt` prints: scale 1/512, the
        // 16-GET schedule, batch 16 against the batch-1 per-key path.
        let unbatched = profile_batched_tax(1.0 / 512.0, 16, 1);
        let batched = profile_batched_tax(1.0 / 512.0, 16, 16);
        assert_eq!(batched.n_gets, unbatched.n_gets, "same key schedule");
        // One PE configuration per key list amortizes the register
        // writes: the batched tax clears a 5x bar.
        assert!(
            batched.config_tax_ratio <= unbatched.config_tax_ratio / 5.0,
            "{unbatched:?} vs {batched:?}"
        );
        // And the per-key device time drops at least 5x with it.
        assert!(batched.us_per_get * 5.0 <= unbatched.us_per_get, "{unbatched:?} vs {batched:?}");
    }

    #[test]
    fn cluster_profile_folds_stats_and_merges_the_trace() {
        let p = cluster_profile(SCALE, 8, 2);
        assert_eq!(p.stats.shards.len(), 2);
        assert_eq!(p.stats.merged.op(nkv::OpKind::Get).ops, 8);
        // The fleet SCAN fans out to both shards.
        assert_eq!(p.stats.merged.op(nkv::OpKind::Scan).ops, 2);
        assert!(p.trace_json.contains(&format!("\"pid\":{}", cosmos_sim::DEVICE_PID_STRIDE + 100)));
        assert!(p.trace_json.contains(&format!("\"pid\":{}", cosmos_sim::ROUTER_PID)));
        assert!(p.trace_json.contains("router_merge"));
    }

    /// Busy means service (the utilisation law): on a single-server
    /// resource (the DRAM port, the ARM, the NVMe link, each PE) busy time
    /// never exceeds the latency of the ops that spent it, and one
    /// resource's spans never overlap. Checked on everything `repro
    /// profile` prints at `profile_smoke.txt`'s settings: the device's GET
    /// and SCAN rows, their spans, the batched GET tax and every fleet
    /// shard's rows. (`repro explain` prints plans and cost estimates, no
    /// busy time.)
    #[test]
    fn single_server_busy_time_never_exceeds_latency() {
        use cosmos_sim::TraceKind;
        use std::collections::BTreeMap;
        fn check(who: &str, stats: &nkv::DeviceStats) {
            for kind in [nkv::OpKind::Get, nkv::OpKind::Scan] {
                let m = stats.metrics.op(kind);
                let (b, latency) = (&m.breakdown, m.hist.sum());
                for (resource, busy) in
                    [("dram", b.dram_ns), ("arm", b.cfg_ns), ("nvme", b.nvme_ns)]
                {
                    assert!(busy <= latency, "{who} {kind:?}: {resource} busy {busy} > {latency}");
                }
            }
        }
        let scale = 1.0 / 512.0;
        let p = profile(scale, 16);
        check("device", &p.stats);
        // The profile's ops run one after another, so every span of one
        // single-server resource must end before the next one starts.
        let mut by_resource: BTreeMap<(u8, u32), Vec<(u64, u64)>> = BTreeMap::new();
        for ev in &p.trace {
            let resource = match ev.kind {
                TraceKind::DramTransfer { .. } => (0, 0),
                TraceKind::RegAccess { .. } => (1, 0),
                TraceKind::NvmeTransfer { .. }
                | TraceKind::QueueSubmit { .. }
                | TraceKind::QueueComplete { .. } => (2, 0),
                TraceKind::PeJob { pe, .. } => (3, pe),
                _ => continue,
            };
            by_resource.entry(resource).or_default().push((ev.start, ev.start + ev.dur));
        }
        assert!(by_resource.len() >= 4, "DRAM, ARM, NVMe and the PEs are traced");
        for (resource, mut spans) in by_resource {
            spans.sort_unstable();
            for w in spans.windows(2) {
                assert!(w[0].1 <= w[1].0, "{resource:?}: span {:?} overlaps {:?}", w[0], w[1]);
            }
        }
        for batch in [1, 16] {
            let t = profile_batched_tax(scale, p.n_gets, batch);
            assert!(t.cfg_us_per_get <= t.us_per_get, "{t:?}");
            assert!(t.nvme_us_per_get <= t.us_per_get, "{t:?}");
        }
        let fleet = cluster_profile(scale, 16, 4);
        for row in &fleet.stats.shards {
            check(&format!("shard {}", row.shard), &row.stats);
        }
    }

    #[test]
    fn more_ref_pes_do_not_speed_up_a_flash_bound_scan() {
        // The paper: the main bottleneck is the available flash bandwidth.
        let pts = ablation_pe_count(SCALE, &[1, 7]);
        let (t1, t7) = (pts[0].1, pts[1].1);
        assert!((t1 - t7).abs() / t1 < 0.05, "scan is flash-bound: {t1} vs {t7}");
    }

    #[test]
    fn aggregate_pushdown_moves_only_the_accumulator() {
        let (scan_bytes, agg_bytes, _, _) = ablation_aggregate_pushdown(SCALE);
        assert_eq!(agg_bytes, 8);
        assert!(scan_bytes > 100 * 20, "the filtering scan moves records");
    }

    #[test]
    fn flexible_store_units_reduce_dram_traffic() {
        let (ours, base) = ablation_store_traffic(SCALE);
        assert!(
            ours < base / 2,
            "partial-block stores must cut write traffic (ours {ours} vs base {base})"
        );
    }
}
