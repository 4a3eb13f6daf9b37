//! Planner/engine slice of the differential harness (`tests/common`).
//!
//! Contract: a [`PhysicalPlan`](nkv::PhysicalPlan) only decides *where*
//! work runs — software ARM walk, hardware PEs, hybrid pushdown split, or
//! N parallel PE job streams — never *what* it computes. Every plan for
//! the same logical op returns the model's answer and, record for record
//! in merge order, the software plan's (serial single-PE dispatch,
//! `parallel_pes = 0`, included), across seeded datasets, overwrite
//! churn, version histories and injected fault weather (transient reads,
//! ECC degradation, PE hangs → HW→SW degradation).

mod common;

use common::{
    ge, lt, report_fields, run, run_reports, Answer, Cfg, Churn, Model, Op, Store, Table, Tier,
    Weather,
};
use ndp_ir::AggOp;
use ndp_pe::oracle::FilterRule;
use ndp_swgen::{job_io, DriverProfile, PeInvoke};
use ndp_workload::spec::{paper_lanes, ref_lanes};
use nkv::Backend;

const TABLE: &str = "papers";
const AGGS: [AggOp; 4] = [AggOp::Count, AggOp::Sum, AggOp::Min, AggOp::Max];

/// A bulk-loaded papers table (4 PEs, so streams 1..=4 are all legal).
fn papers() -> Cfg {
    Cfg { table: Table::Papers { pes: 4, c1: None }, ..Cfg::default() }
}

/// `papers()` holding `n` papers, about one in `seed + 10` overwritten.
fn seeded(cfg: Cfg, seed: u64, n: u64) -> (Store, Model) {
    cfg.seeded(n, seed as usize % 7, seed as usize + 10)
}

/// Run `ops` on every plan: software, hybrid, and — when the chain fits
/// the PE's stages — hardware at 0 (serial) to 4 streams. Every plan
/// returns software's raw answers, which pins the merge order itself.
fn check_plans(cfg: Cfg, store: &mut Store, model: &mut Model, ops: &[Op], hw_legal: bool) {
    let want = run(&cfg.on(Backend::Software), store, model, ops);
    let mut plans = vec![cfg.on(Backend::Hybrid)];
    if hw_legal {
        plans.extend((0..=4).map(|streams| Cfg { streams, ..cfg.on(Backend::Hardware) }));
    } else {
        for op in ops {
            let query = op.query().unwrap();
            assert!(store.db().execute(TABLE, &query, Backend::Hardware).is_err(), "{op:?}");
        }
    }
    for plan in plans {
        assert_eq!(run(&plan, store, model, ops), want, "{plan:?} vs software, raw merge order");
        if plan.streams > 0 {
            let stats = store.db().parallel_scan_stats(TABLE).unwrap();
            let s = stats.expect("parallel dispatch records stats");
            assert_eq!((s.workers, s.blocks_per_worker.len()), (plan.streams, plan.streams));
        }
    }
}

#[test]
fn every_plan_matches_the_model_on_clean_hardware() {
    for seed in [0u64, 3] {
        let (mut store, mut model) = seeded(papers(), seed, 9_000 + seed * 2_000);
        for (rules, hw_legal) in [
            (vec![], true),
            (vec![ge(paper_lanes::YEAR, 2010)], true),
            (vec![lt(paper_lanes::ID, 500_000)], true),
            // Two rules exceed the paper-PE's single filtering stage:
            // hardware rejects, hybrid pushes one and post-filters one.
            (
                vec![
                    ge(paper_lanes::YEAR, 2000),
                    FilterRule { lane: paper_lanes::VENUE, op_code: 1, value: 3 },
                ],
                false,
            ),
        ] {
            check_plans(papers(), &mut store, &mut model, &[Op::Scan(rules)], hw_legal);
        }
    }
}

#[test]
fn every_plan_matches_the_model_under_fault_weather() {
    // No read may fail: retries, the watchdog and the ARM absorb them all.
    for (seed, weather) in
        [(1u64, Weather::TransientReads), (2, Weather::EccAndHangs), (3, Weather::HangStorm)]
    {
        let cfg = Cfg { weather, seed: 10 + seed, ..papers() };
        let (mut store, mut model) = seeded(cfg, seed, 8_000);
        let scan = [Op::Scan(vec![ge(paper_lanes::YEAR, 2005)])];
        check_plans(cfg, &mut store, &mut model, &scan, true);
        // Heal and re-check: the healthy device agrees with the model
        // it agreed with while degraded.
        let db = store.db();
        db.platform_mut().clear_faults();
        db.read_repair(1).expect("relocate degraded pages");
        db.reset_pes(TABLE).expect("reset PEs");
        check_plans(papers(), &mut store, &mut model, &scan, true);
    }
}

#[test]
fn gets_match_the_model_on_every_backend() {
    let (mut store, mut model) = seeded(papers(), 4, 7_000);
    let mut gets: Vec<Op> = model.keys().into_iter().step_by(7_000 / 8).map(Op::Get).collect();
    gets.push(Op::Get(u64::MAX)); // guaranteed miss
    for backend in [Backend::Software, Backend::Hardware, Backend::Hybrid] {
        run(&papers().on(backend), &mut store, &mut model, &gets);
    }
}

#[test]
fn range_scan_plans_match_the_model() {
    let (mut store, mut model) = seeded(papers(), 5, 7_000);
    let keys = model.keys();
    let range = [Op::RangeScan(keys[keys.len() / 4], keys[3 * keys.len() / 4])];
    // The paper-PE has one stage, so the 2-rule range chain runs as a
    // software plan or a hybrid split — not pure hardware.
    check_plans(papers(), &mut store, &mut model, &range, false);
}

/// `year >= min_year` on the refs table (no rule at all for 0).
fn min_year_rules(min_year: u64) -> Vec<FilterRule> {
    match min_year {
        0 => Vec::new(),
        v => vec![ge(ref_lanes::YEAR, v)],
    }
}

#[test]
fn aggregate_plans_match_the_model_and_each_other() {
    // A bulk-loaded multi-record table: the A3 ablation's shape.
    let refs = Cfg { table: Table::Refs { unique: false }, ..Cfg::default() };
    let (mut store, mut model) = refs.build(common::refs(15_000), &[]);
    // Recorded at the parent of the change that made aggregates
    // reconcile: such a table has no versions, so not a nanosecond moves.
    let pinned_sw = [3_289_058, 10, 300_000, 8, 15_000, 4_629, 0, 0, 0];
    let pinned_hw = [2_031_091, 10, 300_000, 8, 15_000, 4_629, 94, 40, 0];
    for agg in AGGS {
        let op = [Op::Aggregate(min_year_rules(2000), agg, ref_lanes::YEAR)];
        let exercised = matches!(model.answer(&op[0]), Answer::Agg(_, true));
        assert!(exercised, "the dataset must exercise the reduction");
        for (backend, pinned) in [(Backend::Software, pinned_sw), (Backend::Hardware, pinned_hw)] {
            let [(_, report)] =
                run_reports(&refs.on(backend), &mut store, &mut model, &op).try_into().unwrap();
            assert_eq!(report_fields(&report), pinned, "{backend:?} {agg:?} report moved");
        }
    }

    // A churned unique-key table: overwritten and deleted versions must
    // not count, wherever the shadowing version lives.
    let cfg = Cfg { table: Table::Refs { unique: true }, ..Cfg::default() };
    for churn in Churn::ALL {
        let (mut store, mut model) = cfg.build(vec![], &churn.writes());
        for min_year in [0, 2000] {
            check_churned_scans(cfg, &mut store, &mut model, min_year, churn);
            check_churned_aggregates(cfg, &mut store, &mut model, min_year, churn);
        }
        for devices in [1, 4] {
            let fleet = Cfg { devices, ..cfg };
            let (mut store, mut model) = fleet.build(vec![], &churn.writes());
            for min_year in [0, 2000] {
                let rules = min_year_rules(min_year);
                run(&fleet, &mut store, &mut model, &[Op::Scan(rules.clone())]);
                let aggs: Vec<Op> =
                    AGGS.map(|agg| Op::Aggregate(rules.clone(), agg, ref_lanes::YEAR)).into();
                for backend in [Backend::Software, Backend::Hardware] {
                    run(&fleet.on(backend), &mut store, &mut model, &aggs);
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
    for backend in [Backend::Software, Backend::Hardware] {
        let scan = |unique| {
            let cfg = Cfg { table: Table::Refs { unique }, ..Cfg::default() }.on(backend);
            let (mut store, mut model) = cfg.build(vec![], &Churn::Flushed.writes());
            let [(_, report)] =
                run_reports(&cfg, &mut store, &mut model, &[Op::Scan(vec![])]).try_into().unwrap();
            (model.len(), report)
        };
        let ((reconciled, rep), (versions, bound)) = (scan(true), scan(false));
        assert_eq!((reconciled, versions), (90, 150), "{backend:?}");
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
fn check_churned_scans(
    cfg: Cfg,
    store: &mut Store,
    model: &mut Model,
    min_year: u64,
    churn: Churn,
) {
    let scan = [Op::Scan(min_year_rules(min_year))];
    for backend in [Backend::Software, Backend::Hardware, Backend::Hybrid] {
        let mut serial = None;
        for streams in [0usize, 4] {
            let plan = Cfg { streams, ..cfg.on(backend) };
            let what = format!("{churn:?}, year >= {min_year}, {plan:?}");
            let [(answer, report)] = run_reports(&plan, store, model, &scan).try_into().unwrap();
            assert!(report.shadow_confirm_reads <= churn.newer_blocks(), "{what}: {report:?}");
            let seen = (answer, report.shadow_confirm_reads);
            assert_eq!(serial.get_or_insert_with(|| seen.clone()), &seen, "{what} vs serial");
        }
    }
}

/// Every tier and the adaptive planner answer `agg(year)` over `year >=
/// min_year` like the model, and every report's `tuples_out` is the
/// SCAN's count; the hardware tier reduces on the ARM exactly the blocks
/// a newer component may shadow.
fn check_churned_aggregates(
    cfg: Cfg,
    store: &mut Store,
    model: &mut Model,
    min_year: u64,
    churn: Churn,
) {
    let rules = min_year_rules(min_year);
    let Answer::Records(rows) = model.answer(&Op::Scan(rules.clone())) else { unreachable!() };
    for agg in AGGS {
        let op = [Op::Aggregate(rules.clone(), agg, ref_lanes::YEAR)];
        let forced = [Backend::Software, Backend::Hardware, Backend::Hybrid].map(Tier::Forced);
        for tier in forced.into_iter().chain([Tier::Adaptive]) {
            let what = format!("{agg:?}, year >= {min_year}, {churn:?} on {tier:?}");
            let fallbacks = store.db().table_health("refs").unwrap().sw_fallback_blocks;
            let [(_, rep)] =
                run_reports(&Cfg { tier, ..cfg }, store, model, &op).try_into().unwrap();
            assert_eq!(rep.tuples_out, rows.len() as u64, "{what}: tuples_out vs SCAN");
            if tier == Tier::Forced(Backend::Hardware) {
                let health = store.db().table_health("refs").unwrap();
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
    }
}
