//! The metric catalogue: every name the benchmark prints, with its unit,
//! direction, clock and — for per-layer metrics — the layer it belongs
//! to and the end-to-end metric it is expected to move.
//!
//! Naming rule: `sim_*` (and the `sim.`/`nkv.<op>.` counters marked
//! `exact`) are on the *simulated device clock* — deterministic for a
//! fixed seed, compared for equality. Everything else is host time or
//! host memory — noisy, compared against a bound.
//!
//! `BENCHMARK.json` carries the same names, units and directions; a unit
//! test below keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Regression bound as a share of the parent's median (end-to-end and
    /// workload metrics; 0 for per-layer metrics, which have none).
    pub bound: f64,
    /// On the simulated clock (or a count derived from it): must repeat
    /// exactly for a fixed seed.
    pub exact: bool,
    /// Layer (crate) for per-layer metrics, "" otherwise.
    pub layer: &'static str,
    /// What it should move / where it is reported.
    pub note: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
    note: &'static str,
) -> Def {
    Def { name, unit, better, bound, exact, layer: "", note }
}

const fn layer(
    layer: &'static str,
    name: &'static str,
    unit: &'static str,
    better: Better,
    exact: bool,
    note: &'static str,
) -> Def {
    Def { name, unit, better, bound: 0.0, exact, layer, note }
}

use Better::{Higher, Lower};

/// Reported by every workload with `--trace 0`; bounded in `BENCHMARK.json`.
pub const END_TO_END: &[Def] = &[
    e2e("setup_s", "s", Lower, 0.25, false, "host time to build the workload's dataset/state (median of the set-ups in a run)"),
    e2e("host_ops_per_s", "ops/s", Higher, 0.25, false, "median-chunk operations per host second (op = 32 KiB block scanned / GET key / queued command / PUT-or-DELETE / spec generated+verified)"),
    e2e("peak_rss_mb", "MiB", Lower, 0.10, false, "VmHWM of the workload's process once the phase measured on its first set-up has ended"),
    e2e("sim_us_per_op", "us", Lower, 0.03, true, "simulated device microseconds per op over one unit of work (a chunk with all its phases, plus the closing reads of ingest_churn); identical for a fixed seed"),
];

/// The workload-specific end-to-end numbers (the paper's own figures).
/// Each is printed by the workload(s) named in its note on every run, and
/// reported as a per-layer metric (0 where it does not apply) because the
/// benchmark contract wants every *bounded* metric on every workload.
pub const WORKLOAD: &[Def] = &[
    e2e("sim_mb_per_host_s", "MB/s", Higher, 0.25, false, "scan_bulk: simulated table bytes scanned per host second (the simulator's speed)"),
    e2e("sim_scan_hw_s", "s", Lower, 0.001, true, "scan_bulk: simulated seconds of the Hardware scan pair (Fig. 7b ours HW)"),
    e2e("sim_scan_sw_s", "s", Lower, 0.001, true, "scan_bulk: same, Software"),
    e2e("sim_get_hw_us", "us", Lower, 0.001, true, "get_point: mean simulated us per key, serial_hw (Fig. 7a ours HW)"),
    e2e("sim_get_batched_us", "us", Lower, 0.001, true, "get_point: mean simulated us per key, batched16_hw"),
    e2e("sim_get_cached_us", "us", Lower, 0.001, true, "get_point: mean simulated us per key, cached_spill"),
    e2e("sim_ops_per_s", "ops/s", Higher, 0.001, true, "queued_mixed: completed commands per simulated second, single device"),
    e2e("sim_get_p99_us", "us", Lower, 0.001, true, "queued_mixed: exact p99 of GET submit->complete, single device (n printed)"),
    e2e("sim_fleet_ops_per_s", "ops/s", Higher, 0.001, true, "queued_mixed: same scripts through the 4-device fleet"),
    e2e("write_amp", "ratio", Lower, 0.001, true, "ingest_churn: flash bytes programmed / user bytes written (bulk load + PUTs)"),
    e2e("space_amp", "ratio", Lower, 0.001, true, "ingest_churn: flash bytes stored / live user bytes in the model"),
    e2e("paper_err_pct", "%", Lower, 0.001, true, "scan_bulk, generate: max relative error vs the paper's own numbers (Fig. 7b 5.512/5.530 s; Table I slices) - the only reference that exists"),
];

/// Per-layer ledger, reported with `--trace 1` (after [`WORKLOAD`]).
pub const PER_LAYER: &[Def] = &[
    // ndp-spec / ndp-ir / ndp-hdl / ndp-swgen / core: host kernels.
    layer("ndp-spec", "spec.parse_us", "us", Lower, false, "-> host_ops_per_s@generate"),
    layer("ndp-ir", "ir.elaborate_us", "us", Lower, false, "-> host_ops_per_s@generate"),
    layer("ndp-hdl", "hdl.emit_us", "us", Lower, false, "-> host_ops_per_s@generate"),
    layer("ndp-hdl", "hdl.resources_us", "us", Lower, false, "-> host_ops_per_s@generate"),
    layer(
        "ndp-hdl",
        "hdl.verilog_bytes",
        "bytes",
        Lower,
        true,
        "Verilog emitted per chunk @generate",
    ),
    layer("ndp-hdl", "hdl.table1_err_pct", "%", Lower, true, "-> paper_err_pct@generate"),
    layer("ndp-swgen", "swgen.header_us", "us", Lower, false, "-> host_ops_per_s@generate"),
    layer(
        "ndp-swgen",
        "swgen.header_bytes",
        "bytes",
        Lower,
        true,
        "C header emitted per chunk @generate",
    ),
    layer(
        "core",
        "core.generate_us",
        "us",
        Lower,
        false,
        "facade; self time = facade - the four stages",
    ),
    // ndp-pe.
    layer("ndp-pe", "pe.oracle_block_us", "us", Lower, false, "-> sim_mb_per_host_s@scan_bulk"),
    layer("ndp-pe", "pe.oracle_mb_per_s", "MB/s", Higher, false, "-> sim_mb_per_host_s@scan_bulk"),
    layer("ndp-pe", "pe.cycle_block_us", "us", Lower, false, "-> host_ops_per_s@generate"),
    layer("ndp-pe", "pe.cycles_per_host_s", "1/s", Higher, false, "-> host_ops_per_s@generate"),
    layer("ndp-pe", "pe.tuples_in", "count", Higher, true, "tuples inspected in one chunk"),
    layer("ndp-pe", "pe.tuples_out", "count", Higher, true, "tuples passed in one chunk"),
    // cosmos-sim host kernels.
    layer(
        "cosmos-sim",
        "sim.server_schedule_ns",
        "ns",
        Lower,
        false,
        "-> sim_mb_per_host_s@scan_bulk",
    ),
    layer(
        "cosmos-sim",
        "sim.server_backfill_ns",
        "ns",
        Lower,
        false,
        "-> host_ops_per_s@queued_mixed",
    ),
    layer(
        "cosmos-sim",
        "sim.flash_read_page_ns",
        "ns",
        Lower,
        false,
        "-> sim_mb_per_host_s@scan_bulk",
    ),
    layer(
        "cosmos-sim",
        "sim.flash_program_page_ns",
        "ns",
        Lower,
        false,
        "-> host_ops_per_s@ingest_churn, setup_s",
    ),
    layer("cosmos-sim", "sim.cache_lookup_ns", "ns", Lower, false, "-> host_ops_per_s@get_point"),
    layer("cosmos-sim", "sim.cache_insert_ns", "ns", Lower, false, "-> host_ops_per_s@get_point"),
    layer("cosmos-sim", "sim.trace_record_ns", "ns", Lower, false, "-> trace_overhead_pct"),
    layer(
        "cosmos-sim",
        "sim.queue_submit_ns",
        "ns",
        Lower,
        false,
        "-> host_ops_per_s@queued_mixed",
    ),
    // cosmos-sim simulated counters.
    layer("cosmos-sim", "sim.flash_reads", "count", Lower, true, "-> sim_scan_hw_s@scan_bulk"),
    layer("cosmos-sim", "sim.flash_programs", "count", Lower, true, "-> write_amp@ingest_churn"),
    layer("cosmos-sim", "sim.flash_busy_ns", "ns", Lower, true, "-> sim_scan_hw_s@scan_bulk"),
    layer(
        "cosmos-sim",
        "sim.flash_occupancy",
        "ratio",
        Higher,
        true,
        "-> sim_scan_hw_s@scan_bulk (HW scan pair)",
    ),
    layer(
        "cosmos-sim",
        "sim.cache_hit_rate",
        "ratio",
        Higher,
        true,
        "-> sim_get_cached_us@get_point (cached_spill)",
    ),
    layer(
        "cosmos-sim",
        "sim.cache_evictions",
        "count",
        Lower,
        true,
        "-> sim_get_cached_us@get_point (cached_spill)",
    ),
    layer(
        "cosmos-sim",
        "sim.queue_full_stalls",
        "count",
        Lower,
        true,
        "-> sim_ops_per_s@queued_mixed",
    ),
    layer(
        "cosmos-sim",
        "sim.queue_max_inflight",
        "count",
        Higher,
        true,
        "-> sim_ops_per_s@queued_mixed",
    ),
    layer(
        "cosmos-sim",
        "sim.dropped_spans",
        "count",
        Lower,
        true,
        "trace ring overflow; breakdowns undercount when > 0",
    ),
    // nkv host kernels.
    layer("nkv", "nkv.memtable_put_ns", "ns", Lower, false, "-> host_ops_per_s@ingest_churn"),
    layer("nkv", "nkv.bloom_lookup_ns", "ns", Lower, false, "-> host_ops_per_s@get_point"),
    layer(
        "nkv",
        "nkv.crc32c_mb_per_s",
        "MB/s",
        Higher,
        false,
        "-> host_ops_per_s@ingest_churn, setup_s",
    ),
    layer("nkv", "nkv.hist_record_ns", "ns", Lower, false, "-> host_ops_per_s@queued_mixed"),
    layer("nkv", "nkv.plan_lower_ns", "ns", Lower, false, "-> host_ops_per_s@get_point"),
    layer(
        "nkv",
        "nkv.cost_choose_ns",
        "ns",
        Lower,
        false,
        "adaptive planner; off the measured paths",
    ),
    layer("nkv", "nkv.bulk_load_mb_per_s", "MB/s", Higher, false, "-> setup_s everywhere"),
    layer("nkv", "nkv.persist_ms", "ms", Lower, false, "@ingest_churn"),
    layer("nkv", "nkv.recover_ms", "ms", Lower, false, "@ingest_churn"),
    // nkv host time per call (mean span of the traced run).
    layer("nkv", "nkv.get_hw_host_us", "us", Lower, false, "-> host_ops_per_s@get_point"),
    layer("nkv", "nkv.get_sw_host_us", "us", Lower, false, "-> host_ops_per_s@get_point"),
    layer(
        "nkv",
        "nkv.multi_get_host_us_per_key",
        "us",
        Lower,
        false,
        "-> host_ops_per_s@get_point",
    ),
    layer("nkv", "nkv.scan_hw_host_ms", "ms", Lower, false, "-> sim_mb_per_host_s@scan_bulk"),
    layer("nkv", "nkv.scan_sw_host_ms", "ms", Lower, false, "-> sim_mb_per_host_s@scan_bulk"),
    layer("nkv", "nkv.scan_par4_host_ms", "ms", Lower, false, "-> sim_mb_per_host_s@scan_bulk"),
    layer(
        "nkv",
        "nkv.run_queued_host_us_per_op",
        "us",
        Lower,
        false,
        "-> host_ops_per_s@queued_mixed",
    ),
    layer(
        "nkv",
        "nkv.cluster_run_queued_host_us_per_op",
        "us",
        Lower,
        false,
        "-> host_ops_per_s@queued_mixed",
    ),
    // nkv simulated, per op class (DeviceStats breakdown over one chunk).
    layer("nkv", "nkv.get.cfg_ns", "ns", Lower, true, "-> sim_get_hw_us@get_point"),
    layer("nkv", "nkv.get.flash_ns", "ns", Lower, true, "-> sim_get_hw_us@get_point"),
    layer("nkv", "nkv.get.dram_ns", "ns", Lower, true, "-> sim_get_hw_us@get_point"),
    layer("nkv", "nkv.get.pe_ns", "ns", Lower, true, "-> sim_get_hw_us@get_point"),
    layer("nkv", "nkv.get.nvme_ns", "ns", Lower, true, "-> sim_get_hw_us@get_point"),
    layer("nkv", "nkv.scan.cfg_ns", "ns", Lower, true, "-> sim_scan_hw_s@scan_bulk"),
    layer("nkv", "nkv.scan.flash_ns", "ns", Lower, true, "-> sim_scan_hw_s@scan_bulk"),
    layer("nkv", "nkv.scan.dram_ns", "ns", Lower, true, "-> sim_scan_hw_s@scan_bulk"),
    layer("nkv", "nkv.scan.pe_ns", "ns", Lower, true, "-> sim_scan_hw_s@scan_bulk"),
    layer("nkv", "nkv.scan.nvme_ns", "ns", Lower, true, "-> sim_scan_hw_s@scan_bulk"),
    layer(
        "nkv",
        "nkv.get.config_tax_ratio",
        "ratio",
        Lower,
        true,
        "cfg_ns/nvme_ns, serial_hw -> sim_get_hw_us@get_point",
    ),
    layer(
        "nkv",
        "nkv.get.config_tax_batched",
        "ratio",
        Lower,
        true,
        "cfg_ns/nvme_ns, batched16_hw -> sim_get_batched_us@get_point",
    ),
    layer(
        "nkv",
        "nkv.get.blocks_per_lookup",
        "ratio",
        Lower,
        true,
        "data blocks read per serial_hw GET",
    ),
    layer(
        "nkv",
        "nkv.get.reg_writes_per_key",
        "ratio",
        Lower,
        true,
        "PE register writes per serial_hw GET",
    ),
    layer("nkv", "nkv.scan.blocks", "count", Lower, true, "data blocks read by the HW scan pair"),
    layer(
        "nkv",
        "nkv.scan.shadow_confirm_reads",
        "count",
        Lower,
        true,
        "extra block reads confirming bloom hits",
    ),
    layer(
        "nkv",
        "nkv.scan.par4_sim_s",
        "s",
        Lower,
        true,
        "simulated seconds of the 4-stream HW scan pair",
    ),
    layer("nkv", "nkv.get_p50_sim_us", "us", Lower, true, "-> sim_get_p99_us@queued_mixed"),
    layer("nkv", "nkv.get_p90_sim_us", "us", Lower, true, "-> sim_get_p99_us@queued_mixed"),
    layer(
        "nkv",
        "nkv.put_p90_sim_us",
        "us",
        Lower,
        true,
        "@queued_mixed; highest PUT percentile n supports",
    ),
    layer(
        "nkv",
        "nkv.scan_p50_sim_us",
        "us",
        Lower,
        true,
        "@queued_mixed; highest SCAN percentile n supports",
    ),
    layer("nkv", "nkv.flush_count", "count", Lower, true, "-> write_amp@ingest_churn"),
    layer("nkv", "nkv.compaction_count", "count", Lower, true, "-> write_amp@ingest_churn"),
    layer("nkv", "nkv.compaction_sim_ms", "ms", Lower, true, "-> write_amp@ingest_churn"),
    layer("nkv", "nkv.retries", "count", Lower, true, "must be 0 on these clean workloads"),
    layer("nkv", "nkv.degradations", "count", Lower, true, "must be 0 on these clean workloads"),
    layer(
        "nkv",
        "nkv.fleet_busy_skew",
        "ratio",
        Lower,
        true,
        "-> sim_fleet_ops_per_s@queued_mixed",
    ),
    // ndp-workload.
    layer(
        "ndp-workload",
        "workload.gen_records_per_s",
        "1/s",
        Higher,
        false,
        "bounds setup_s from below",
    ),
    // Derived, one per layer: kernel ns x calls / measured host ns.
    layer("ndp-spec", "est_host_share.ndp-spec", "%", Lower, false, "share of a chunk's host time"),
    layer("ndp-ir", "est_host_share.ndp-ir", "%", Lower, false, "share of a chunk's host time"),
    layer("ndp-hdl", "est_host_share.ndp-hdl", "%", Lower, false, "share of a chunk's host time"),
    layer(
        "ndp-swgen",
        "est_host_share.ndp-swgen",
        "%",
        Lower,
        false,
        "share of a chunk's host time",
    ),
    layer("ndp-pe", "est_host_share.ndp-pe", "%", Lower, false, "share of a chunk's host time"),
    layer(
        "cosmos-sim",
        "est_host_share.cosmos-sim",
        "%",
        Lower,
        false,
        "share of a chunk's host time",
    ),
    layer(
        "nkv",
        "est_host_share.nkv",
        "%",
        Lower,
        false,
        "share of a chunk's host time (named kernels only)",
    ),
    layer(
        "ndp-workload",
        "est_host_share.ndp-workload",
        "%",
        Lower,
        false,
        "share of a chunk's host time",
    ),
    layer("", "host_unattributed_pct", "%", Lower, false, "100 - the shares above: the gap, named"),
    layer("", "trace_overhead_pct", "%", Lower, false, "traced vs untraced median chunk"),
];

/// The layers `est_host_share.*` is reported for.
pub const LAYERS: &[&str] =
    &["ndp-spec", "ndp-ir", "ndp-hdl", "ndp-swgen", "ndp-pe", "cosmos-sim", "nkv", "ndp-workload"];

pub const WORKLOADS: &[(&str, &str)] = &[
    ("scan_bulk", "Fig. 7b full predicate SCANs at scale 1/8, HW/SW/4-stream: flash+DRAM DES, block filter, CRC and scan merge do the work; index walk, bloom, queues and generator do none"),
    ("get_point", "Fig. 7a point lookups at scale 1/8 over 7 churned C1 SSTs, serial/batched/cached-fit/cached-spill: config MMIO, index walk, bloom, block cache and planner dominate; the scan bypass"),
    ("queued_mixed", "closed loop, 8 clients x depth 8, 90/8/2 GET/PUT/SCAN through the NVMe queue engine, then a 4-device fleet: contention, backfill, histograms and the router set its numbers"),
    ("ingest_churn", "write path: bulk load at 1/8, PUT/DELETE churn with auto flush+compaction, persist, power cut, recover, model check: memtable, SST builder, merge, flash program, manifest"),
    ("generate", "the paper's toolflow with no storage: ~200 seeded specs through parse/elaborate/emit/header, each PE's cycle-level PeSim checked against the oracle; nkv and cosmos-sim must not move"),
];

pub fn find(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(WORKLOAD).chain(PER_LAYER).find(|d| d.name == name)
}

/// Names reported with `--trace 1`, in `BENCHMARK.json` order.
pub fn per_layer_names() -> impl Iterator<Item = &'static Def> {
    WORKLOAD.iter().chain(PER_LAYER)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_benchmark_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(per_layer_names()) {
            assert!(valid_name(d.name), "bad name {}", d.name);
            assert!(seen.insert(d.name), "duplicate name {}", d.name);
            assert!(
                !d.unit.is_empty()
                    && d.unit.len() <= 16
                    && d.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {} for {}",
                d.unit,
                d.name
            );
        }
        assert!(END_TO_END.len() <= 16 && per_layer_names().count() <= 128);
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        assert!(WORKLOADS.iter().all(|(n, why)| valid_name(n) && why.len() <= 200));
    }

    #[test]
    fn benchmark_json_carries_the_same_catalogue() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = json::parse(text).expect("BENCHMARK.json parses");
        let list = |key: &str| doc.get(key).and_then(json::Value::as_arr).unwrap().to_vec();
        let field =
            |v: &json::Value, k: &str| v.get(k).and_then(json::Value::as_str).unwrap().to_string();

        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (v, d) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(v, "name"), d.name);
            assert_eq!(field(v, "unit"), d.unit);
            assert_eq!(field(v, "better"), d.better.as_str());
            assert_eq!(v.get("bound").and_then(json::Value::as_f64), Some(d.bound), "{}", d.name);
        }
        let per_layer = list("per_layer");
        assert_eq!(per_layer.len(), per_layer_names().count());
        for (v, d) in per_layer.iter().zip(per_layer_names()) {
            assert_eq!(field(v, "name"), d.name);
            assert_eq!(field(v, "unit"), d.unit);
            assert_eq!(field(v, "better"), d.better.as_str());
        }
        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (v, (name, why)) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(field(v, "name"), *name);
            assert_eq!(field(v, "why"), *why);
        }
    }
}
