//! Device-DRAM block cache slice of the differential harness
//! (`tests/common`).
//!
//! Contract: the cache changes *when* bytes arrive (a DRAM-port burst
//! instead of a flash read), never *which* bytes. Every backend —
//! software ARM walk, hardware PEs (serial and parallel dispatch), and
//! the hybrid pushdown split — must return the model's answers, in the
//! same raw order with the cache on and off, across clean and
//! injected-fault weather and under interleaved PUT/flush/compaction
//! churn. Fault RNG draws legitimately differ between the cached and
//! uncached runs (a hit skips the flash read that would have rolled the
//! fault), so the slice compares answers, never health counters or
//! timings.

mod common;

use common::{
    encode, ge, paper, record_for, run, trip, Answer, Cfg, Churn, Model, Op, Store, Table, Weather,
    CACHE_BUDGET,
};
use cosmos_sim::{DeviceFaultKind, INDEX_BLOCK};
use ndp_ir::AggOp;
use ndp_workload::spec::{paper_lanes, ref_lanes};
use ndp_workload::{PaperGen, PubGraphConfig};
use nkv::{Backend, NkvDb};

const TABLE: &str = "papers";

/// The papers table with 4 PEs. `Cfg::seeded(n, 0, 11)` bulk-loads it
/// and overwrites every 11th paper; the cache is on before any data
/// lands.
fn papers(cache: bool, weather: Weather, seed: u64) -> Cfg {
    Cfg { table: Table::Papers { pes: 4, c1: None }, cache, weather, seed, ..Cfg::default() }
}

/// The whole read mix — SCAN on every backend (serial + parallel
/// dispatch), the hybrid RANGE_SCAN, GETs on both tiers — twice (cold +
/// warm), as raw answers.
fn read_mix(cfg: Cfg, store: &mut Store, model: &mut Model) -> Vec<Answer> {
    let keys = model.keys();
    let n = keys.len();
    let scan = Op::Scan(vec![ge(paper_lanes::YEAR, 2005)]);
    let range = Op::RangeScan(keys[n / 4], keys[3 * n / 4]);
    let mut with_gets = vec![scan.clone()];
    with_gets.extend([keys[0], keys[n / 3], keys[n - 1]].map(Op::Get));
    let mix = [
        (cfg.on(Backend::Software), with_gets.clone()),
        (cfg.on(Backend::Hardware), with_gets),
        (Cfg { streams: 2, ..cfg.on(Backend::Hardware) }, vec![scan.clone()]),
        (cfg.on(Backend::Hybrid), vec![scan, range]),
    ];
    let mut out = Vec::new();
    for _round in 0..2 {
        for (plan, ops) in &mix {
            out.extend(run(plan, store, model, ops));
        }
    }
    out
}

#[test]
fn read_mix_is_byte_identical_with_and_without_cache_across_weathers() {
    for (weather, seed) in
        [(Weather::Clean, 0), (Weather::TransientReads, 11), (Weather::HangStorm, 13)]
    {
        let [(mut plain, a), (mut cached, b)] = [false, true].map(|cache| {
            let cfg = papers(cache, weather, seed);
            let (mut store, mut model) = cfg.seeded(8_000, 0, 11);
            let answers = read_mix(cfg, &mut store, &mut model);
            (store, answers)
        });
        assert_eq!(a, b, "cached read mix must be byte-identical under {weather:?}");
        assert_eq!(plain.db().cache_stats(), None, "cache default-off");
        let s = cached.db().cache_stats().expect("cache enabled");
        assert_eq!(s.hits + s.misses, s.lookups, "counter conservation under {weather:?}: {s:?}");
        assert!(s.hits > 0, "the warm round must hit under {weather:?}: {s:?}");
        assert!(s.insertions > 0, "misses must admit under {weather:?}: {s:?}");
    }
}

#[test]
fn warm_repeated_scans_reach_the_acceptance_hit_rate() {
    let cfg = papers(true, Weather::Clean, 0).on(Backend::Hardware);
    let (mut store, mut model) = cfg.seeded(8_000, 0, 11);
    let scans = vec![Op::Scan(vec![ge(paper_lanes::YEAR, 2000)]); 4];
    let answers = run(&cfg, &mut store, &mut model, &scans);
    assert!(answers.windows(2).all(|w| w[0] == w[1]), "every repetition returns the same bytes");
    let s = store.db().cache_stats().expect("cache enabled");
    assert!(s.hit_rate() >= 0.5, "repeated scans at the default budget must hit >= 50%: {s:?}");
}

#[test]
fn interleaved_puts_compactions_and_scans_stay_coherent() {
    // Tiny memtable + low C1 limit: the PUT stream below forces flushes
    // and multi-level compactions *between* scans, so the cache sees
    // constant SST retirement while it is being repopulated.
    let cfg = |cache| Cfg { table: Table::Papers { pes: 2, c1: Some(2) }, cache, ..Cfg::default() };
    let [(mut plain, mut plain_model), (mut cached, mut cached_model)] =
        [false, true].map(|cache| cfg(cache).build(vec![], &[]));
    let wl = PubGraphConfig { papers: 1_500, refs: 1_500, seed: 29 };
    let puts: Vec<Op> = PaperGen::new(wl).map(|p| Op::Put(encode(&p))).collect();
    let everything = Op::Scan(vec![ge(paper_lanes::YEAR, 1900)]); // full coherence check
    for (i, chunk) in puts.chunks(250).enumerate() {
        let backend = if i % 2 == 1 { Backend::Hardware } else { Backend::Software };
        let ops = [chunk, std::slice::from_ref(&everything)].concat();
        let a = run(&cfg(false).on(backend), &mut plain, &mut plain_model, &ops);
        let b = run(&cfg(true).on(backend), &mut cached, &mut cached_model, &ops);
        assert_eq!(a, b, "scan after {} puts", (i + 1) * 250);
    }
    let s = cached.db().cache_stats().expect("cache enabled");
    assert!(s.invalidations > 0, "compaction churn must invalidate cached blocks: {s:?}");
    assert_eq!(s.hits + s.misses, s.lookups, "counter conservation: {s:?}");
}

#[test]
fn aggregates_are_identical_with_and_without_cache() {
    // A bulk-loaded multi-record table, then every churned unique-key
    // table (`Churn`), whose SCANs must also return the model's records.
    for churned in std::iter::once(None).chain(Churn::ALL.map(Some)) {
        let cfg = |cache| Cfg {
            table: Table::Refs { unique: churned.is_some() },
            cache,
            ..Cfg::default()
        };
        let [(mut plain, mut plain_model), (mut cached, mut cached_model)] =
            [false, true].map(|cache| match churned {
                Some(churn) => cfg(cache).build(vec![], &churn.writes()),
                None => cfg(cache).build(common::refs(12_000), &[]),
            });
        let rules = vec![ge(ref_lanes::YEAR, 2000)];
        let aggs = [AggOp::Count, AggOp::Sum, AggOp::Min, AggOp::Max]
            .map(|agg| Op::Aggregate(rules.clone(), agg, ref_lanes::YEAR));
        let twice: Vec<Op> = aggs.iter().flat_map(|op| [op.clone(), op.clone()]).collect();
        let mut runs = vec![(Backend::Software, 0, twice.clone()), (Backend::Hardware, 0, twice)];
        if churned.is_some() {
            for backend in [Backend::Software, Backend::Hardware, Backend::Hybrid] {
                for streams in [0usize, 4] {
                    runs.push((backend, streams, vec![Op::Scan(rules.clone())]));
                }
            }
        }
        for (backend, streams, ops) in runs {
            let what = format!("{backend:?}, {streams} streams, churned: {churned:?}");
            let a =
                run(&Cfg { streams, ..cfg(false).on(backend) }, &mut plain, &mut plain_model, &ops);
            let b = run(
                &Cfg { streams, ..cfg(true).on(backend) },
                &mut cached,
                &mut cached_model,
                &ops,
            );
            assert_eq!(a, b, "{what}: cache on vs off");
        }
        let s = cached.db().cache_stats().expect("cache enabled");
        assert!(s.hits > 0, "repeated aggregate scans must hit: {s:?}");
        assert_eq!(s.hits + s.misses, s.lookups, "counter conservation: {s:?}");
    }
}

#[test]
fn hostile_pe_hang_storm_degrades_gracefully_on_every_path() {
    // Regression for the watchdog claim path: a fault plan that hangs
    // every PE while blocks keep arriving used to be able to abort via
    // `expect` when no PE was selectable. It must degrade HW -> SW and
    // keep returning correct bytes — cached and uncached alike.
    for cache in [false, true] {
        let cfg = papers(cache, Weather::HangStorm, 41);
        let (mut store, mut model) = cfg.seeded(4_000, 0, 11);
        let scan = [Op::Scan(vec![ge(paper_lanes::YEAR, 1900)])];
        let want = run(&cfg.on(Backend::Software), &mut store, &mut model, &scan);
        // Serial and parallel hardware dispatch: every PE hangs on its
        // first claim, is retired, and the scans finish on the ARM.
        for streams in [0usize, 2, 4] {
            let hw = Cfg { streams, ..cfg.on(Backend::Hardware) };
            assert_eq!(run(&hw, &mut store, &mut model, &scan), want, "{hw:?}");
        }
        // The degraded GET still finds the key.
        let key = model.keys()[model.len() / 2];
        run(&cfg.on(Backend::Hardware), &mut store, &mut model, &[Op::Get(key)]);
        let health = store.db().table_health(TABLE).expect("table exists");
        assert!(health.watchdog_trips > 0, "the storm must trip the watchdog");
        assert!(health.sw_fallback_blocks > 0, "blocks must degrade to software");
    }
}

/// Every key of `keys` reads back its record from `table` on both tiers.
fn assert_all_present(db: &mut NkvDb, table: &str, keys: std::ops::RangeInclusive<u64>) {
    for key in keys {
        for backend in [Backend::Software, Backend::Hardware] {
            let (got, _) = db.get(table, key, backend).expect("get");
            assert_eq!(got, Some(record_for(key)), "`{table}` key {key} on {backend:?}");
        }
    }
}

/// A cached device with two papers tables, `a` and `b`.
fn two_table_db() -> NkvDb {
    let mut db = NkvDb::default_db();
    db.enable_cache(CACHE_BUDGET);
    for table in ["a", "b"] {
        db.create_table(table, Table::Papers { pes: 1, c1: Some(4) }.config()).expect("table");
    }
    db
}

// The block cache, batched GETs and retirement key on the bare SST id,
// so two live SSTs sharing one id made a GET search the other SST's
// cached block and answer `None` for a present key. Ids are unique per
// device now; these are the three ways they used to collide.

#[test]
fn two_bulk_loads_into_one_table_do_not_share_cached_blocks() {
    let mut db = two_table_db();
    db.bulk_load("a", (1..=300).map(record_for)).expect("first load");
    assert_all_present(&mut db, "a", 1..=300); // warms the first SST's blocks
    db.bulk_load("a", (1_001..=1_300).map(record_for)).expect("second load");
    assert_all_present(&mut db, "a", 1_001..=1_300);
    assert_all_present(&mut db, "a", 1..=300);
}

#[test]
fn bulk_loads_into_two_tables_do_not_share_cached_blocks() {
    let mut db = two_table_db();
    db.bulk_load("a", (1..=300).map(record_for)).expect("load a");
    db.bulk_load("b", (1_001..=1_300).map(record_for)).expect("load b");
    assert_all_present(&mut db, "a", 1..=300);
    assert_all_present(&mut db, "b", 1_001..=1_300);
    assert_all_present(&mut db, "a", 1..=300);
}

#[test]
fn flushes_into_two_tables_do_not_share_cached_blocks() {
    let mut db = two_table_db();
    for (table, keys) in [("a", 1..=60u64), ("b", 1_001..=1_060)] {
        for key in keys {
            db.put(table, record_for(key)).expect("put");
        }
        db.flush(table).expect("flush");
    }
    assert_all_present(&mut db, "a", 1..=60);
    assert_all_present(&mut db, "b", 1_001..=1_060);
    assert_all_present(&mut db, "a", 1..=60);
}

// A power cut hands out again the SST ids written after the last
// persist (recovery advances the allocator past the ids it recovers), so
// a cached `(sst_id, block)` that outlived a cut would answer with the
// lost SST's bytes. DRAM does not survive a cut: both ways a device comes
// back — the harness's power cycle and `NkvCluster::heal_shard` — leave
// no block cached before it.

/// The `(sst_id, block)` keys `db` caches among the first ids a device
/// hands out (these SSTs hold one data block each).
fn cached_blocks(db: &mut NkvDb) -> Vec<(u64, usize)> {
    let Some(cache) = db.platform_mut().cache() else { return Vec::new() };
    let keys = (1..=64).flat_map(|id| [(id, 0), (id, INDEX_BLOCK)]);
    keys.filter(|&(id, block)| cache.contains(id, block)).collect()
}

/// Keys `1..=40` at `year`, flushed into one SST.
fn versions(year: u32) -> Vec<Op> {
    (1..=40).map(|key| Op::Put(paper(key, Some(year)))).chain([Op::Flush]).collect()
}

/// Flush, persist, flush again and GET every key. Each GET finds its key
/// in the newest SST, so the cache holds blocks of that SST only, the
/// one the next power cut loses.
fn cached_past_the_persist() -> Vec<Op> {
    [versions(1990), vec![Op::Persist], versions(2000), (1..=40).map(Op::Get).collect()].concat()
}

#[test]
fn a_power_cycle_leaves_no_block_cached_before_it() {
    let cfg = Cfg { cache: true, ..Cfg::default() };
    let (mut store, mut model) = cfg.build(vec![], &cached_past_the_persist());
    let before = cached_blocks(store.db());
    assert!(!before.is_empty(), "the GETs cached the unpersisted SST");
    // The cycle ends in a full SCAN of what recovery found, which caches
    // the persisted SST's blocks, not the lost one's.
    run(&cfg, &mut store, &mut model, &[Op::PowerCycle]);
    assert!(store.db().cache_stats().is_some(), "a cached device comes back cached");
    let cycled = cached_blocks(store.db());
    assert!(before.iter().all(|k| !cycled.contains(k)), "{before:?} survived: {cycled:?}");
    // `run` holds every GET to the model: none may see the lost SST.
    let gets: Vec<Op> = (1..=40).map(Op::Get).collect();
    run(&cfg, &mut store, &mut model, &[versions(2010), gets].concat());
    let after = cached_blocks(store.db());
    assert!(before.iter().any(|k| after.contains(k)), "an id is reused: {before:?} {after:?}");
}

#[test]
fn a_healed_shard_leaves_no_block_cached_before_its_power_cut() {
    let (cfg, victim) = (Cfg { devices: 2, ..Cfg::default() }, 0);
    let (mut store, mut model) = cfg.build(vec![], &[]);
    for shard in 0..2 {
        store.fleet().shard_db(shard).unwrap().enable_cache(CACHE_BUDGET);
    }
    run(&cfg, &mut store, &mut model, &cached_past_the_persist());
    let fleet = store.fleet();
    let before = cached_blocks(fleet.shard_db(victim).unwrap());
    assert!(!before.is_empty(), "the GETs cached the victim's unpersisted SST");
    trip(fleet, victim, DeviceFaultKind::PowerCut);
    let key = (1..=40).find(|&key| fleet.shard_for_key(key) == victim).unwrap();
    let missing = fleet.get(cfg.table.name(), key, Backend::Software).unwrap().missing_shards;
    assert_eq!(missing, [victim], "the cut strikes the victim's next op");
    fleet.heal_shard(victim).unwrap();
    let db = fleet.shard_db(victim).unwrap();
    assert_eq!(cached_blocks(db), [], "nothing cached survives the cut");
    assert!(db.cache_stats().is_some(), "the healed shard keeps its cache, empty");
    // Every key is written again, so the model holds once more.
    let gets: Vec<Op> = (1..=40).map(Op::Get).collect();
    run(&cfg, &mut store, &mut model, &[versions(2010), gets].concat());
    let after = cached_blocks(store.fleet().shard_db(victim).unwrap());
    assert!(before.iter().any(|k| after.contains(k)), "an id is reused: {before:?} {after:?}");
}
