//! Adaptive-planner slice of the differential harness (`tests/common`):
//! cost-based tier selection must never change *what* a query returns,
//! only which engine runs it.
//!
//! Contracts:
//!
//! 1. **equivalence**: for every logical op shape, the adaptive run
//!    answers like the model and, byte for byte, like every forced tier
//!    that lowers (Software, Hardware, Hybrid) on an identical device or
//!    3-device fleet — the tier choice is invisible in results;
//! 2. **promotion**: a repeated flash-heavy scan starts on the ARM
//!    (cold hardware estimate charges un-overlapped page reads) and
//!    flips SW → HW once the op class crosses the promotion threshold,
//!    with byte-identical results on both sides of the flip;
//! 3. **fault weather**: adaptive runs under flash and PE-hang weather return
//!    the fault-free bytes or the typed errors the weather allows —
//!    never a panic, never silent drift;
//! 4. **cluster**: `NkvCluster::execute` on the adaptive tier lets
//!    every shard run its own `choose_backend` pick, and the merge has
//!    the same bytes as forced fan-outs while the picks diverge from the
//!    ARM path shard by shard;
//! 5. **explain**: `NkvDb::explain` on the adaptive tier renders the
//!    chosen tier and the per-tier cost estimates the decision was made
//!    from.

mod common;

use common::{ge, puts, record_for, run, Answer, Cfg, Op, Store, Tier, Weather};
use ndp_ir::AggOp;
use ndp_workload::spec::paper_lanes::YEAR;
use nkv::{Backend, LogicalOp, ReadPolicy, PROMOTE_AFTER};

fn adaptive() -> Cfg {
    Cfg { tier: Tier::Adaptive, ..Cfg::default() }
}

/// The op shapes the slice sweeps: point/absent GETs, batched GETs,
/// full and selective scans, a range scan and an aggregate.
fn op_suite() -> Vec<Op> {
    vec![
        Op::Get(17),
        Op::Get(9_999),
        Op::MultiGet(vec![3, 77, 250, 9_999]),
        Op::Scan(vec![ge(YEAR, 0)]),
        Op::Scan(vec![ge(YEAR, 2015)]),
        Op::RangeScan(50, 150),
        Op::Aggregate(vec![ge(YEAR, 2000)], AggOp::Count, YEAR),
    ]
}

/// Whether `op` lowers on `backend` for the store's papers table (a
/// fleet's shards share one table configuration).
fn lowers(store: &mut Store, op: &Op, backend: Backend) -> bool {
    let db = match store {
        Store::Db(db) => db,
        Store::Fleet(fleet) => fleet.shard_db(0).unwrap(),
    };
    db.plan("papers", &op.query().unwrap(), backend).is_ok()
}

#[test]
fn adaptive_matches_every_forced_tier_on_every_op_shape() {
    // Two passes: the second runs with warmed-up feedback state, so the
    // adaptive planner may pick different tiers than the first — the
    // bytes must not care.
    let ops = [op_suite(), op_suite()].concat();
    for devices in [0, 3] {
        let adaptive = Cfg { devices, ..adaptive() };
        let (mut store, mut model) = adaptive.build(vec![], &puts(400));
        let got = run(&adaptive, &mut store, &mut model, &ops);
        let mut compared = 0;
        for backend in [Backend::Software, Backend::Hardware, Backend::Hybrid] {
            let forced = adaptive.on(backend);
            let (mut store, mut model) = forced.build(vec![], &puts(400));
            for (op, got) in ops.iter().zip(&got) {
                if !lowers(&mut store, op, backend) {
                    continue; // tier doesn't lower this shape (e.g. deep chains)
                }
                let want = run(&forced, &mut store, &mut model, std::slice::from_ref(op));
                assert_eq!(
                    want,
                    std::slice::from_ref(got),
                    "{devices} devices, {op:?}: adaptive diverged from forced {backend:?}"
                );
                compared += 1;
            }
        }
        // The sweep must genuinely exercise multi-tier comparisons, not
        // degenerate to software-only.
        assert!(compared >= 30, "{devices} devices: only {compared} forced comparisons ran");
    }
}

#[test]
fn repeated_hot_scans_promote_from_software_to_hardware() {
    let (mut store, _) = adaptive().build(vec![], &puts(400));
    let db = store.db();
    let op = LogicalOp::Scan { rules: vec![ge(YEAR, 0)] };
    let mut choices = Vec::new();
    let mut first = None;
    for i in 0..8u64 {
        let (_, cost) = db.choose_backend("papers", &op).unwrap();
        let outcome = db
            .execute("papers", &op, nkv::Tier::Adaptive)
            .unwrap_or_else(|e| panic!("scan {i}: {e}"));
        let answer = Answer::from_outcome(outcome, adaptive().table);
        let want = first.get_or_insert_with(|| answer.clone());
        assert_eq!(&answer, want, "scan {i}: bytes changed across the tier flip");
        choices.push(cost.chosen);
        assert_eq!(cost.hot, i >= PROMOTE_AFTER, "scan {i}: promotion state");
    }
    assert!(
        choices[..PROMOTE_AFTER as usize].iter().all(|&b| b == Backend::Software),
        "cold sightings must stay on the ARM path: {choices:?}"
    );
    assert!(
        choices[PROMOTE_AFTER as usize..].contains(&Backend::Hardware),
        "a hot flash-heavy scan must promote to hardware: {choices:?}"
    );
}

#[test]
fn adaptive_gets_match_the_model_under_fault_weather() {
    let ops: Vec<Op> = (0..40u64)
        .flat_map(|i| {
            let scan = (i % 8 == 0).then(|| Op::Scan(vec![ge(YEAR, 0)]));
            [Some(Op::Get(1 + (i * 11) % 400)), scan]
        })
        .flatten()
        .collect();
    let weather = Cfg { weather: Weather::FlashAndHangStorm, seed: 0xADA7, ..adaptive() };
    let [(got, mut faulty), (want, _)] = [weather, adaptive()].map(|cfg| {
        let (mut store, mut model) = cfg.build(vec![], &puts(400));
        (run(&cfg, &mut store, &mut model, &ops), store)
    });
    // Every op that answered returns the fault-free bytes in their order.
    for ((op, got), want) in ops.iter().zip(&got).zip(&want) {
        if !matches!(got, Answer::Failed(_)) {
            assert_eq!(got, want, "{op:?} drifted under fault weather");
        }
    }
    let health = faulty.db().device_stats().health;
    assert!(
        health.flash.transient_failures + health.flash.correctable_hits + health.pe_hangs_injected
            > 0,
        "the campaign never injected a fault"
    );
}

#[test]
fn cluster_adaptive_scan_merges_like_forced_fanouts_with_per_shard_tiers() {
    let fleet = Cfg { devices: 3, read_policy: ReadPolicy::Strict, ..Cfg::default() };
    let build = || fleet.build((1..=400).map(record_for).collect(), &[]);
    let (mut adaptive, _) = build();
    let rules = vec![ge(YEAR, 0)];
    let op = LogicalOp::Scan { rules: rules.clone() };
    // Warm the per-shard feedback past the promotion threshold so the
    // router exercises heterogeneous tier choices too.
    for _ in 0..=PROMOTE_AFTER {
        let (outcome, missing) =
            adaptive.fleet().execute("papers", &op, nkv::Tier::Adaptive).unwrap();
        assert!(missing.is_empty());
        let merged = Answer::from_outcome(outcome, fleet.table);
        for backend in [Backend::Software, Backend::Hardware] {
            let (mut store, mut model) = build();
            let forced =
                run(&fleet.on(backend), &mut store, &mut model, &[Op::Scan(rules.clone())]);
            assert_eq!(
                forced,
                std::slice::from_ref(&merged),
                "{backend:?}: cluster merge bytes diverged"
            );
        }
    }
    // After warm-up every flash-heavy shard should have left the ARM
    // path (Hardware or its Hybrid pushdown twin — observed feedback
    // legitimately ping-pongs between the two near-equal tiers). Each
    // shard's `choose_backend` is the tier its next adaptive run takes.
    let cluster = adaptive.fleet();
    let tiers: Vec<Backend> = (0..cluster.devices())
        .map(|s| cluster.shard_db(s).unwrap().choose_backend("papers", &op).unwrap().0)
        .collect();
    assert!(
        tiers.iter().all(|&b| b != Backend::Software),
        "hot flash-heavy shards should promote off the ARM: {tiers:?}"
    );
}

#[test]
fn explain_adaptive_renders_tier_and_cost_estimates() {
    let (mut store, _) = adaptive().build(vec![], &puts(400));
    let op = LogicalOp::Scan { rules: vec![ge(YEAR, 2010)] };
    let text = store.db().explain("papers", &op, nkv::Tier::Adaptive).unwrap();
    assert!(text.contains("PLAN SCAN ON papers"), "{text}");
    assert!(text.contains("  cost: software "), "{text}");
    assert!(text.contains("hardware "), "{text}");
    assert!(text.contains("adaptive: chose "), "{text}");
    assert!(text.contains("cold after 0 sightings"), "{text}");
}
