//! Adaptive-tier slice of the differential harness (`tests/common`):
//! `Tier::Adaptive` runs the tier rule (a GET or MULTI-GET on Software,
//! any other op on the first of Hardware, Hybrid and Software that
//! lowers), which must never change *what* a query returns, only which
//! engine runs it, and must cost little more than the best forced tier.
//!
//! Contracts:
//!
//! 1. **equivalence**: for every logical op shape, the adaptive run
//!    answers like the model and, byte for byte, like every forced tier
//!    that lowers (Software, Hardware, Hybrid) on an identical device or
//!    3-device fleet — the tier choice is invisible in results;
//! 2. **regret**: on a seeded mix of every read shape, run uncached,
//!    cached, on a 3-device fleet and on the refs table, the adaptive
//!    tier's total simulated time is within 0.5 % of the best forced
//!    tier per op (PERF.md "PR 47" has the numbers);
//! 3. **fault weather**: adaptive runs under flash and PE-hang weather return
//!    the fault-free bytes or the typed errors the weather allows —
//!    never a panic, never silent drift;
//! 4. **cluster**: `NkvCluster::execute` on the adaptive tier runs the
//!    rule on every shard, and the merge has the same bytes as forced
//!    fan-outs;
//! 5. **explain**: `NkvDb::explain` on the adaptive tier renders the
//!    chosen tier and the rule's reason for it.

mod common;

use common::{
    ge, puts, record_for, run, run_reports, Answer, Cfg, Model, Op, Store, Table, Tier, Weather,
};
use ndp_ir::AggOp;
use ndp_workload::spec::paper_lanes::YEAR;
use ndp_workload::spec::ref_lanes;
use ndp_workload::SplitMix64;
use nkv::{Backend, LogicalOp, ReadPolicy};

/// Papers the regret slice bulk-loads, refs its refs cell loads, and
/// ops each cell runs.
const REGRET_PAPERS: u64 = 8_000;
const REGRET_REFS: u64 = 16_000;
const REGRET_OPS: usize = 40;

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

/// Whether `op` lowers on `backend` for the store's table `t` (a
/// fleet's shards share one table configuration).
fn lowers(store: &mut Store, t: Table, op: &Op, backend: Backend) -> bool {
    let db = match store {
        Store::Db(db) => db,
        Store::Fleet(fleet) => fleet.shard_db(0).unwrap(),
    };
    db.plan(t.name(), &op.query().unwrap(), backend).is_ok()
}

#[test]
fn adaptive_matches_every_forced_tier_on_every_op_shape() {
    let ops = op_suite();
    for devices in [0, 3] {
        let adaptive = Cfg { devices, ..adaptive() };
        let (mut store, mut model) = adaptive.build(vec![], &puts(400));
        let got = run(&adaptive, &mut store, &mut model, &ops);
        let mut compared = 0;
        for backend in [Backend::Software, Backend::Hardware, Backend::Hybrid] {
            let forced = adaptive.on(backend);
            let (mut store, mut model) = forced.build(vec![], &puts(400));
            for (op, got) in ops.iter().zip(&got) {
                if !lowers(&mut store, forced.table, op, backend) {
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
        assert!(compared >= 15, "{devices} devices: only {compared} forced comparisons ran");
    }
}

/// The regret slice's op mix, drawn uniformly by a seeded `SplitMix64`
/// over keys `1..=keys`: GET, 8-key MULTI-GET, a selective and a full
/// SCAN on the `year` lane, a 200-key RANGE_SCAN and a COUNT.
fn regret_mix(seed: u64, keys: u64, year: u32, n: usize) -> Vec<Op> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let key = 1 + rng.gen_u64(keys);
            match rng.gen_u64(6) {
                0 => Op::Get(key),
                1 => Op::MultiGet((0..8).map(|i| 1 + (key + i * (keys / 8)) % keys).collect()),
                2 => Op::Scan(vec![ge(year, 2019)]),
                3 => Op::Scan(vec![ge(year, 0)]),
                4 => Op::RangeScan(key, key + 200),
                _ => Op::Aggregate(vec![ge(year, 2000)], AggOp::Count, year),
            }
        })
        .collect()
}

/// Simulated nanoseconds of each op of `ops`, run one at a time on a
/// fresh store of `cfg` on the tier `pick` names (`None`: skipped).
fn per_op_ns(
    cfg: Cfg,
    build: &dyn Fn(&Cfg) -> (Store, Model),
    ops: &[Op],
    pick: impl Fn(&mut Store, &Op) -> Option<Tier>,
) -> Vec<Option<u64>> {
    let (mut store, mut model) = build(&cfg);
    ops.iter()
        .map(|op| {
            let tier = pick(&mut store, op)?;
            let cfg = Cfg { tier, ..cfg };
            let [(_, report)] = run_reports(&cfg, &mut store, &mut model, std::slice::from_ref(op))
                .try_into()
                .unwrap();
            Some(report.sim_ns)
        })
        .collect()
}

/// One cell of the regret slice: the mix's total simulated time on the
/// adaptive tier is within 0.5 % of the best forced tier per op.
fn regret_cell(label: &str, cfg: Cfg, build: &dyn Fn(&Cfg) -> (Store, Model), ops: &[Op]) {
    let forced = [Backend::Software, Backend::Hardware, Backend::Hybrid].map(|backend| {
        per_op_ns(cfg, build, ops, |store, op| {
            lowers(store, cfg.table, op, backend).then_some(Tier::Forced(backend))
        })
    });
    let best: u64 = (0..ops.len())
        .map(|i| forced.iter().filter_map(|f| f[i]).min().expect("software lowers every op"))
        .sum();
    let adaptive: u64 = per_op_ns(cfg, build, ops, |_, _| Some(Tier::Adaptive))
        .into_iter()
        .map(Option::unwrap)
        .sum();
    let regret = 100.0 * (adaptive as f64 / best as f64 - 1.0);
    eprintln!(
        "{label}: best forced {:.3} ms, adaptive {:.3} ms ({regret:+.2} %)",
        best as f64 / 1e6,
        adaptive as f64 / 1e6,
    );
    assert!(1000 * adaptive <= 1005 * best, "{label}: adaptive {adaptive} ns, best {best} ns");
}

#[test]
fn adaptive_stays_within_half_a_percent_of_the_best_forced_tier_on_a_seeded_mix() {
    let papers = Cfg { table: Table::Papers { pes: 2, c1: None }, ..Cfg::default() };
    let seeded = |cfg: &Cfg| cfg.seeded(REGRET_PAPERS, 100, 7);
    for (label, cfg) in [
        ("uncached", papers),
        ("cached", Cfg { cache: true, ..papers }),
        ("3-device fleet", Cfg { devices: 3, ..papers }),
    ] {
        for seed in [11, 7] {
            let mix = regret_mix(seed, REGRET_PAPERS, YEAR, REGRET_OPS);
            regret_cell(&format!("{label}, seed {seed}"), cfg, &seeded, &mix);
        }
    }
    // The generated refs renumbered `1..=REGRET_REFS`: a unique-key table.
    let refs = Cfg { table: Table::Refs { unique: true }, ..Cfg::default() };
    let renumber = |(mut rec, key): (Vec<u8>, u64)| {
        rec[..8].copy_from_slice(&key.to_le_bytes());
        rec
    };
    let bulk: Vec<Vec<u8>> = common::refs(REGRET_REFS).into_iter().zip(1..).map(renumber).collect();
    let loaded = |cfg: &Cfg| cfg.build(bulk.clone(), &[]);
    let mix = regret_mix(11, REGRET_REFS, ref_lanes::YEAR, REGRET_OPS);
    regret_cell("refs, seed 11", refs, &loaded, &mix);
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
fn cluster_adaptive_scan_merges_like_forced_fanouts() {
    let fleet = Cfg { devices: 3, read_policy: ReadPolicy::Strict, ..Cfg::default() };
    let build = || fleet.build((1..=400).map(record_for).collect(), &[]);
    let (mut adaptive, _) = build();
    let rules = vec![ge(YEAR, 0)];
    let op = LogicalOp::Scan { rules: rules.clone() };
    let (outcome, missing) = adaptive.fleet().execute("papers", &op, nkv::Tier::Adaptive).unwrap();
    assert!(missing.is_empty());
    let merged = Answer::from_outcome(outcome, fleet.table);
    for backend in [Backend::Software, Backend::Hardware] {
        let (mut store, mut model) = build();
        let forced = run(&fleet.on(backend), &mut store, &mut model, &[Op::Scan(rules.clone())]);
        assert_eq!(
            forced,
            std::slice::from_ref(&merged),
            "{backend:?}: cluster merge bytes diverged"
        );
    }
    // Every shard runs the scan on the PE, from the first call on.
    let cluster = adaptive.fleet();
    for s in 0..cluster.devices() {
        let pick = cluster.shard_db(s).unwrap().choose_backend("papers", &op).unwrap();
        assert_eq!(pick, Backend::Hardware, "shard {s}");
    }
}

#[test]
fn explain_adaptive_renders_tier_and_cost_estimates() {
    let (mut store, _) = adaptive().build(vec![], &puts(400));
    let op = LogicalOp::Scan { rules: vec![ge(YEAR, 2010)] };
    let text = store.db().explain("papers", &op, nkv::Tier::Adaptive).unwrap();
    let hardware = store.db().explain("papers", &op, Backend::Hardware).unwrap();
    assert_eq!(text, hardware + "  tier: hardware (rule: the PE takes the whole op)\n");
}
