//! Differential property suite for the planner/engine layer.
//!
//! Contract: a [`PhysicalPlan`] only decides *where* work runs —
//! software ARM walk, hardware PEs, hybrid pushdown split, or N
//! parallel PE job streams — never *what* it computes. Every plan for
//! the same logical op must return byte-identical results, equal to
//!
//! 1. an independent `BTreeMap` model of the table (last write wins,
//!    key order), and
//! 2. the legacy serial single-PE dispatch (`parallel_pes = 0`),
//!
//! across seeded datasets, overwrite churn, and injected fault weather
//! (transient reads, ECC degradation, PE hangs → HW→SW degradation).

mod common;

use std::collections::BTreeMap;

use common::{apply, fold_years, ref_agg_cfg, ref_year, report_fields, Churn, Write};
use cosmos_sim::faults::FaultPlan;
use ndp_ir::AggOp;
use ndp_pe::oracle::FilterRule;
use ndp_swgen::{job_io, DriverProfile, PeInvoke};
use ndp_workload::spec::{paper_lanes, ref_lanes, PAPER_PE, PAPER_REF_SPEC};
use ndp_workload::{PaperGen, PubGraphConfig, RefGen};
use nkv::{
    Backend, ClusterConfig, LogicalOp, NkvCluster, NkvDb, PlanOutcome, SimReport, TableConfig,
};

const TABLE: &str = "papers";

/// The BTreeMap oracle: key → encoded record, last write wins.
type Model = BTreeMap<u64, Vec<u8>>;

/// Build a bulk-loaded papers table (4 PEs, so streams 1..=4 are all
/// legal) plus its model, then overwrite ~10 % of the keys through the
/// serial PUT path so reconciliation has real work to do.
fn seeded_db(seed: u64, n_records: u64) -> (NkvDb, Model, PubGraphConfig) {
    let module = ndp_spec::parse(PAPER_REF_SPEC).expect("reference spec parses");
    let pe = ndp_ir::elaborate(&module, PAPER_PE).expect("paper PE elaborates");
    let mut db = NkvDb::default_db();
    let mut cfg = TableConfig::new(pe);
    cfg.n_pes = 4;
    db.create_table(TABLE, cfg).expect("table");

    let mut wl = PubGraphConfig::scaled(1.0 / 4096.0);
    wl.papers = n_records;
    let mut model = Model::new();
    let records = (0..wl.papers).map(|i| {
        let mut rec = Vec::with_capacity(80);
        PaperGen::paper_at(&wl, i).encode_into(&mut rec);
        rec
    });
    db.bulk_load(TABLE, records.clone()).expect("bulk load");
    for rec in records {
        model.insert(u64::from_le_bytes(rec[..8].try_into().unwrap()), rec);
    }

    // Overwrites: bump n_cits on every (seed+10)-th paper. The same
    // mutation lands in the model, so both stay in lockstep.
    for i in (seed % 7..wl.papers).step_by(seed as usize + 10) {
        let mut p = PaperGen::paper_at(&wl, i);
        p.n_cits = p.n_cits.wrapping_add(1_000);
        let mut rec = Vec::with_capacity(80);
        p.encode_into(&mut rec);
        model.insert(p.id, rec.clone());
        db.put(TABLE, rec).expect("put");
    }
    (db, model, wl)
}

fn lane_val(rec: &[u8], lane: u32) -> u64 {
    let u32_at = |off: usize| u64::from(u32::from_le_bytes(rec[off..off + 4].try_into().unwrap()));
    match lane {
        l if l == paper_lanes::ID => u64::from_le_bytes(rec[..8].try_into().unwrap()),
        l if l == paper_lanes::YEAR => u32_at(8),
        l if l == paper_lanes::VENUE => u32_at(12),
        l if l == paper_lanes::N_CITS => u32_at(16),
        l if l == paper_lanes::N_REFS => u32_at(20),
        _ => panic!("model does not know lane {lane}"),
    }
}

fn passes(rec: &[u8], rules: &[FilterRule]) -> bool {
    rules.iter().all(|r| {
        let v = lane_val(rec, r.lane);
        match r.op_code {
            1 => v != r.value,
            2 => v == r.value,
            4 => v >= r.value,
            5 => v < r.value,
            other => panic!("model does not know op code {other}"),
        }
    })
}

/// Concatenated matching records in key order — what a scan must return
/// (after key-sorting: the device emits memtable records and block
/// records in scan order, not key order).
fn model_scan(model: &Model, rules: &[FilterRule]) -> (Vec<u8>, u64) {
    let mut out = Vec::new();
    let mut count = 0;
    for rec in model.values() {
        if passes(rec, rules) {
            out.extend_from_slice(rec);
            count += 1;
        }
    }
    (out, count)
}

/// Key-sort a scan's raw output so it can be compared to the BTreeMap
/// model. Raw (unsorted) bytes are still compared *across plans*, which
/// pins the deterministic merge order itself.
fn key_sorted(records: &[u8], width: usize) -> Vec<u8> {
    let mut recs: Vec<&[u8]> = records.chunks_exact(width).collect();
    assert_eq!(recs.len() * width, records.len(), "whole records only");
    recs.sort_by_key(|r| u64::from_le_bytes(r[..8].try_into().unwrap()));
    recs.concat()
}

/// Run one rule chain through every plan the table supports and demand
/// byte-identical results everywhere. `hw_legal` is false for chains
/// longer than the PE's stage count (hardware rejects those; hybrid
/// splits them).
fn check_scan_plans(db: &mut NkvDb, model: &Model, rules: &[FilterRule], hw_legal: bool) {
    let (want, want_count) = model_scan(model, rules);

    let sw = db.scan(TABLE, rules, Backend::Software).expect("software scan");
    assert_eq!(key_sorted(&sw.records, 80), want, "software scan vs model");
    assert_eq!(sw.count, want_count);

    let op = LogicalOp::Scan { rules: rules.to_vec() };
    match db.execute(TABLE, &op, Backend::Hybrid).expect("hybrid scan") {
        PlanOutcome::Records { records, count, .. } => {
            assert_eq!(records, sw.records, "hybrid scan vs software, raw merge order");
            assert_eq!(count, want_count);
        }
        other => panic!("scan must produce records, got {other:?}"),
    }

    if !hw_legal {
        assert!(db.scan(TABLE, rules, Backend::Hardware).is_err(), "hardware must reject");
        return;
    }
    // Legacy serial dispatch first, then every parallel stream count.
    for streams in [0usize, 1, 2, 3, 4] {
        db.set_parallel_pes(TABLE, streams).expect("4 PEs configured");
        let hw = db.scan(TABLE, rules, Backend::Hardware).expect("hardware scan");
        assert_eq!(hw.records, sw.records, "hardware ({streams} streams) vs software, raw order");
        assert_eq!(hw.count, want_count, "{streams} streams");
        let stats = db.parallel_scan_stats(TABLE).expect("table exists");
        match streams {
            0 => {} // serial dispatch leaves whatever ran before; not asserted
            n => {
                let s = stats.expect("parallel dispatch records stats");
                assert_eq!(s.workers, n);
                assert_eq!(s.blocks_per_worker.len(), n);
            }
        }
    }
    db.set_parallel_pes(TABLE, 0).expect("reset");
}

fn year_rule(value: u64) -> FilterRule {
    FilterRule { lane: paper_lanes::YEAR, op_code: 4, value }
}

#[test]
fn every_plan_matches_the_model_on_clean_hardware() {
    for seed in [0u64, 3] {
        let (mut db, model, _) = seeded_db(seed, 9_000 + seed * 2_000);
        check_scan_plans(&mut db, &model, &[], true);
        check_scan_plans(&mut db, &model, &[year_rule(2010)], true);
        check_scan_plans(
            &mut db,
            &model,
            &[FilterRule { lane: paper_lanes::ID, op_code: 5, value: 500_000 }],
            true,
        );
        // Two rules exceed the paper-PE's single filtering stage:
        // hardware rejects, hybrid pushes one and post-filters one.
        check_scan_plans(
            &mut db,
            &model,
            &[year_rule(2000), FilterRule { lane: paper_lanes::VENUE, op_code: 1, value: 3 }],
            false,
        );
    }
}

#[test]
fn every_plan_matches_the_model_under_fault_weather() {
    for (seed, plan) in [
        (1u64, FaultPlan { seed: 11, transient_read_p: 0.01, ..FaultPlan::default() }),
        // Mild ECC degradation + occasional PE hangs. The sweep runs
        // many scans back to back, so the correctable rate must stay
        // low enough that pages survive until the read-repair below.
        (2, FaultPlan { seed: 12, correctable_p: 0.04, pe_hang_p: 0.10, ..FaultPlan::default() }),
        // Every PE hangs: the watchdog retires them and the whole scan
        // degrades to the ARM — results must still be identical.
        (3, FaultPlan { seed: 13, pe_hang_p: 1.0, ..FaultPlan::default() }),
    ] {
        let (mut db, model, _) = seeded_db(seed, 8_000);
        db.platform_mut().install_faults(&plan);
        check_scan_plans(&mut db, &model, &[year_rule(2005)], true);
        // Heal and re-check: the healthy device agrees with the model
        // it agreed with while degraded.
        db.platform_mut().clear_faults();
        db.read_repair(1).expect("relocate degraded pages");
        db.reset_pes(TABLE).expect("reset PEs");
        check_scan_plans(&mut db, &model, &[year_rule(2005)], true);
    }
}

#[test]
fn gets_match_the_model_on_every_backend() {
    let (mut db, model, wl) = seeded_db(4, 7_000);
    let mut keys: Vec<u64> =
        (0..8).map(|i| PaperGen::paper_at(&wl, i * (wl.papers / 8)).id).collect();
    keys.push(u64::MAX); // guaranteed miss
    for key in keys {
        let want = model.get(&key).cloned();
        let (sw, _) = db.get(TABLE, key, Backend::Software).expect("sw get");
        let (hw, _) = db.get(TABLE, key, Backend::Hardware).expect("hw get");
        assert_eq!(sw, want, "software GET {key} vs model");
        assert_eq!(hw, want, "hardware GET {key} vs model");
        for backend in [Backend::Software, Backend::Hardware, Backend::Hybrid] {
            match db.execute(TABLE, &LogicalOp::Get { key }, backend).expect("planned get") {
                PlanOutcome::Point { record, .. } => {
                    assert_eq!(record, want, "planned GET {key} on {backend:?}")
                }
                other => panic!("GET must produce a point outcome, got {other:?}"),
            }
        }
    }
}

#[test]
fn range_scan_plans_match_the_model() {
    let (mut db, model, wl) = seeded_db(5, 7_000);
    let lo = PaperGen::paper_at(&wl, wl.papers / 4).id;
    let hi = PaperGen::paper_at(&wl, 3 * wl.papers / 4).id;
    let want: Vec<u8> = model.range(lo..hi).flat_map(|(_, rec)| rec.iter().copied()).collect();
    // The paper-PE has one stage, so the 2-rule range chain runs as a
    // software plan or a hybrid split — not pure hardware.
    let op = LogicalOp::RangeScan { lo, hi };
    for backend in [Backend::Software, Backend::Hybrid] {
        match db.execute(TABLE, &op, backend).expect("range scan") {
            PlanOutcome::Records { records, .. } => {
                assert_eq!(key_sorted(&records, 80), want, "range scan on {backend:?} vs model")
            }
            other => panic!("range scan must produce records, got {other:?}"),
        }
    }
    assert!(db.execute(TABLE, &op, Backend::Hardware).is_err(), "2 rules > 1 stage");
}

const AGGS: [AggOp; 4] = [AggOp::Count, AggOp::Sum, AggOp::Min, AggOp::Max];

/// `year >= min_year` on the refs table (no rule at all for 0).
fn min_year_rules(min_year: u64) -> Vec<FilterRule> {
    match min_year {
        0 => Vec::new(),
        v => vec![FilterRule { lane: ref_lanes::YEAR, op_code: 4, value: v }],
    }
}

fn aggregate(outcome: PlanOutcome) -> (u64, bool, SimReport) {
    match outcome {
        PlanOutcome::Aggregate { value, any, report } => (value, any, report),
        other => panic!("aggregate must produce an aggregate outcome, got {other:?}"),
    }
}

#[test]
fn aggregate_plans_match_the_model_and_each_other() {
    // A bulk-loaded multi-record table: the A3 ablation's shape.
    let mut db = NkvDb::default_db();
    db.create_table("refs", ref_agg_cfg(false)).expect("refs table");
    let mut wl = PubGraphConfig::scaled(1.0 / 4096.0);
    wl.refs = 15_000;
    let rows: Vec<Vec<u8>> = RefGen::new(wl)
        .take(wl.refs as usize)
        .map(|r| {
            let mut rec = Vec::with_capacity(20);
            r.encode_into(&mut rec);
            rec
        })
        .collect();
    db.bulk_load("refs", rows.iter().cloned()).expect("bulk load");
    let rules = min_year_rules(2000);
    // Recorded at the parent of the change that made aggregates
    // reconcile: such a table has no versions, so not a nanosecond moves.
    let pinned_sw = [3_289_058, 10, 300_000, 8, 15_000, 4_629, 0, 0, 0];
    let pinned_hw = [2_031_091, 10, 300_000, 8, 15_000, 4_629, 94, 40, 0];
    for agg in AGGS {
        let want = fold_years(&rows, 2000, agg);
        assert!(want.1, "the dataset must exercise the reduction");
        let lane = ref_lanes::YEAR;
        let (sw, sw_any, sw_rep) =
            db.scan_aggregate("refs", &rules, agg, lane, Backend::Software).expect("sw agg");
        let (hw, hw_any, hw_rep) =
            db.scan_aggregate("refs", &rules, agg, lane, Backend::Hardware).expect("hw agg");
        assert_eq!((sw, sw_any), want, "software {agg:?} vs model");
        assert_eq!((hw, hw_any), want, "hardware {agg:?} vs model");
        assert_eq!(report_fields(&sw_rep), pinned_sw, "software {agg:?} report moved");
        assert_eq!(report_fields(&hw_rep), pinned_hw, "hardware {agg:?} report moved");
        let op = LogicalOp::ScanAggregate { rules: rules.clone(), agg, lane };
        let (value, any, _) = aggregate(db.execute("refs", &op, Backend::Hardware).expect("agg"));
        assert_eq!((value, any), want, "planned {agg:?} vs model");
    }

    // A churned unique-key table: overwritten and deleted versions must
    // not count, wherever the shadowing version lives.
    for churn in Churn::ALL {
        let (writes, model) = churn.writes();
        let mut db = NkvDb::default_db();
        db.create_table("refs", ref_agg_cfg(true)).expect("refs table");
        apply(&mut db, "refs", &writes);
        for min_year in [0, 2000] {
            check_churned_scans(&mut db, &model, min_year, churn);
            check_churned_aggregates(&mut db, &model, min_year, churn);
        }
        for devices in [1, 4] {
            let mut cluster =
                NkvCluster::new(ClusterConfig { devices, ..ClusterConfig::default() }).unwrap();
            cluster.create_table("refs", ref_agg_cfg(true)).expect("refs table");
            for w in &writes {
                match w {
                    Write::Put(r) => cluster.put("refs", r.clone()),
                    Write::Delete(k) => cluster.delete("refs", *k),
                    Write::Flush => cluster.flush("refs"),
                }
                .expect("cluster write");
            }
            for min_year in [0, 2000] {
                let rules = min_year_rules(min_year);
                let count = cluster.scan("refs", &rules, Backend::Software).expect("scan").count;
                for agg in AGGS {
                    let want = fold_years(model.values(), min_year, agg);
                    for backend in [Backend::Software, Backend::Hardware] {
                        let got = cluster
                            .scan_aggregate("refs", &rules, agg, ref_lanes::YEAR, backend)
                            .expect("cluster aggregate");
                        let what = format!(
                            "{devices} devices, {agg:?} on {backend:?}, year >= {min_year}, \
                             {churn:?}"
                        );
                        assert_eq!((got.value, got.any), want, "{what}");
                        if agg == AggOp::Count {
                            assert_eq!(got.value, count, "COUNT vs SCAN: {what}");
                        }
                    }
                }
            }
        }
    }
}

/// Reconciliation searches each newer block once, in the copy the scan
/// staged: the churned SCAN costs at most twice its block phase plus
/// transfer — what the same writes take on a multi-record table, which
/// never reconciles and returns every stored version.
#[test]
fn a_churned_scan_costs_at_most_twice_its_block_phase_and_transfer() {
    let (writes, _) = Churn::Flushed.writes();
    for backend in [Backend::Software, Backend::Hardware] {
        let scan = |unique_keys| {
            let mut db = NkvDb::default_db();
            db.create_table("refs", ref_agg_cfg(unique_keys)).expect("refs table");
            apply(&mut db, "refs", &writes);
            db.scan("refs", &[], backend).expect("scan")
        };
        let (reconciled, versions) = (scan(true), scan(false));
        assert_eq!((reconciled.count, versions.count), (90, 150), "{backend:?}");
        let (rep, bound) = (reconciled.report, versions.report);
        assert_eq!(rep.shadow_confirm_reads, 1, "{backend:?}: one newer block, searched once");
        assert!(rep.sim_ns <= 2 * bound.sim_ns, "{backend:?}: {rep:?} vs {bound:?}");
    }
}

/// The least register I/O a block reduced on a PE costs: a warm launch
/// that aggregates.
fn warm_agg_block_io() -> u64 {
    let io = job_io(DriverProfile::Generated, 1, 1, PeInvoke::Warm, true);
    io.reg_writes + io.reg_reads
}

/// Every tier returns the model's records for `year >= min_year`, with
/// serial and 4-stream dispatch alike: the same bytes and the same number
/// of blocks searched for shadows, never more than the newer SSTs hold.
fn check_churned_scans(db: &mut NkvDb, model: &Model, min_year: u64, churn: Churn) {
    let rules = min_year_rules(min_year);
    let want: Vec<u8> =
        model.values().filter(|r| ref_year(r) >= min_year).flatten().copied().collect();
    let op = LogicalOp::Scan { rules };
    for backend in [Backend::Software, Backend::Hardware, Backend::Hybrid] {
        let mut serial = None;
        for streams in [0usize, 4] {
            db.set_parallel_pes("refs", streams).expect("4 PEs configured");
            let what = format!("{churn:?}, year >= {min_year}, {backend:?}, {streams} streams");
            let (records, report) = match db.execute("refs", &op, backend).expect("scan") {
                PlanOutcome::Records { records, report, .. } => (records, report),
                other => panic!("scan must produce records, got {other:?}"),
            };
            assert_eq!(key_sorted(&records, 20), want, "{what} vs model");
            assert!(report.shadow_confirm_reads <= churn.newer_blocks(), "{what}: {report:?}");
            let seen = (records, report.shadow_confirm_reads);
            assert_eq!(serial.get_or_insert_with(|| seen.clone()), &seen, "{what} vs serial");
        }
    }
    db.set_parallel_pes("refs", 0).expect("reset");
}

/// Every tier and the adaptive planner answer `agg(year)` over `year >=
/// min_year` like the model, COUNT equals the SCAN's count and every
/// report's `tuples_out`; the hardware tier reduces on the ARM exactly
/// the blocks a newer component may shadow.
fn check_churned_aggregates(db: &mut NkvDb, model: &Model, min_year: u64, churn: Churn) {
    let rules = min_year_rules(min_year);
    let count = db.scan("refs", &rules, Backend::Software).expect("scan").count;
    assert_eq!(count, fold_years(model.values(), min_year, AggOp::Count).0, "SCAN vs model");
    for agg in AGGS {
        let want = fold_years(model.values(), min_year, agg);
        let op = LogicalOp::ScanAggregate { rules: rules.clone(), agg, lane: ref_lanes::YEAR };
        let what = format!("{agg:?}, year >= {min_year}, {churn:?}");
        for backend in [Backend::Software, Backend::Hardware, Backend::Hybrid] {
            let fallbacks = db.table_health("refs").unwrap().sw_fallback_blocks;
            let (value, any, rep) = aggregate(db.execute("refs", &op, backend).expect("agg"));
            assert_eq!((value, any), want, "{what} on {backend:?} vs model");
            assert_eq!(rep.tuples_out, count, "{what} on {backend:?}: tuples_out vs SCAN");
            if backend == Backend::Hardware {
                let health = db.table_health("refs").unwrap();
                assert_eq!(
                    health.sw_fallback_blocks, fallbacks,
                    "{what}: ARM blocks are no fallback"
                );
                assert!(
                    rep.reg_writes + rep.reg_reads < rep.blocks * warm_agg_block_io(),
                    "{what}: shadowable blocks must not be reduced on a PE: {rep:?}"
                );
                // A version on flash is searched for in its staged block
                // (a true shadow, or a bloom false positive); one in the
                // memtable is probed. Each newer block is searched once.
                let searched = churn != Churn::TailInMemtable;
                assert_eq!(rep.shadow_confirm_reads > 0, searched, "{what}: {rep:?}");
                assert!(rep.shadow_confirm_reads <= churn.newer_blocks(), "{what}: {rep:?}");
            }
        }
        let (outcome, _) = db.execute_adaptive("refs", &op).expect("adaptive agg");
        let (value, any, rep) = aggregate(outcome);
        assert_eq!((value, any), want, "{what}, adaptive vs model");
        assert_eq!(rep.tuples_out, count, "{what}, adaptive: tuples_out vs SCAN");
        if agg == AggOp::Count {
            assert_eq!(value, count, "{what}: COUNT vs SCAN");
        }
    }
}
