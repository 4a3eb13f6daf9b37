//! Power-cycle recovery: persist, drop the in-memory state, rebuild from
//! the flash image, and verify reads and scans are unchanged.

mod common;

use ndp_ir::elaborate;
use ndp_pe::oracle::FilterRule;
use ndp_workload::spec::{paper_lanes, PAPER_PE, PAPER_REF_SPEC};
use ndp_workload::{Paper, PaperGen, PubGraphConfig};
use nkv::{Backend, NkvDb, NkvError, TableConfig};

fn encode(p: &Paper) -> Vec<u8> {
    let mut v = Vec::with_capacity(80);
    p.encode_into(&mut v);
    v
}

fn table_cfg() -> TableConfig {
    let m = ndp_spec::parse(PAPER_REF_SPEC).unwrap();
    TableConfig::new(elaborate(&m, PAPER_PE).unwrap())
}

#[test]
fn recovery_preserves_reads_scans_and_tombstones() {
    let mut db = NkvDb::default_db();
    db.create_table("papers", table_cfg()).unwrap();
    let cfg = PubGraphConfig { papers: 3000, refs: 3000, seed: 21 };
    db.bulk_load("papers", PaperGen::new(cfg).map(|p| encode(&p))).unwrap();
    // Some churn: updates, deletes, flush so everything is persistent.
    let mut upd = PaperGen::paper_at(&cfg, 100);
    upd.year = 1900;
    db.put("papers", encode(&upd)).unwrap();
    db.delete("papers", 200).unwrap();
    db.flush("papers").unwrap();
    db.persist().unwrap();

    let rules = [FilterRule { lane: paper_lanes::YEAR, op_code: 5, value: 1950 }];
    let before = db.scan("papers", &rules, Backend::Hardware).unwrap();
    let (g_before, _) = db.get("papers", 500, Backend::Software).unwrap();

    // Power cycle: only the flash array survives.
    let mut fresh = cosmos_sim::CosmosPlatform::default_platform();
    fresh.flash = db.platform_mut().flash.clone();
    let mut recovered = NkvDb::recover(fresh, vec![("papers".into(), table_cfg())]).unwrap();

    let after = recovered.scan("papers", &rules, Backend::Hardware).unwrap();
    assert_eq!(after.records, before.records);
    assert_eq!(after.count, before.count);
    let (g_after, _) = recovered.get("papers", 500, Backend::Software).unwrap();
    assert_eq!(g_after, g_before);
    // The tombstone survived recovery.
    let (gone, _) = recovered.get("papers", 200, Backend::Software).unwrap();
    assert_eq!(gone, None);
    // The updated version still shadows the bulk one.
    let (u, _) = recovered.get("papers", upd.id, Backend::Software).unwrap();
    assert_eq!(Paper::decode(&u.unwrap()).year, 1900);
}

#[test]
fn recovery_then_write_path_does_not_clobber_recovered_data() {
    let mut db = NkvDb::default_db();
    db.create_table("papers", table_cfg()).unwrap();
    let cfg = PubGraphConfig { papers: 1000, refs: 1000, seed: 22 };
    db.bulk_load("papers", PaperGen::new(cfg).map(|p| encode(&p))).unwrap();
    db.persist().unwrap();

    let mut fresh = cosmos_sim::CosmosPlatform::default_platform();
    fresh.flash = db.platform_mut().flash.clone();
    let mut rec = NkvDb::recover(fresh, vec![("papers".into(), table_cfg())]).unwrap();

    // New writes after recovery must not overwrite recovered pages
    // (allocator watermarks were advanced).
    for i in 0..500u64 {
        let mut p = PaperGen::paper_at(&cfg, i % cfg.papers);
        p.venue = 9999;
        rec.put("papers", encode(&p)).unwrap();
    }
    rec.flush("papers").unwrap();
    // Untouched keys still read their original values.
    let p = PaperGen::paper_at(&cfg, 700);
    let (got, _) = rec.get("papers", p.id, Backend::Software).unwrap();
    assert_eq!(got, Some(encode(&p)));
    // Updated keys read the new version.
    let (got, _) = rec.get("papers", 5, Backend::Software).unwrap();
    assert_eq!(Paper::decode(&got.unwrap()).venue, 9999);
}

#[test]
fn recovered_ids_stay_unique_across_tables_and_later_flushes() {
    // The block cache keys on the bare SST id, so ids must stay unique
    // per device through a power cycle: `recover` has to advance the id
    // source past every recovered SST of every table, or the first
    // flush after it reuses a live id and a GET searches the wrong
    // SST's cached block.
    use common::{record_for, Table};
    let small_table = || Table::Papers { pes: 1, c1: Some(4) }.config();
    let tables = [("a", 0u64), ("b", 10_000)];
    let mut db = NkvDb::default_db();
    db.enable_cache(8 << 20);
    let put_flush = |db: &mut NkvDb, table: &str, keys: std::ops::RangeInclusive<u64>| {
        for key in keys {
            db.put(table, record_for(key)).unwrap();
        }
        db.flush(table).unwrap();
    };
    for (table, base) in tables {
        db.create_table(table, small_table()).unwrap();
        db.bulk_load(table, (base + 1..=base + 300).map(record_for)).unwrap();
        put_flush(&mut db, table, base + 1_001..=base + 1_040);
        put_flush(&mut db, table, base + 2_001..=base + 2_040);
    }
    db.persist().unwrap();

    let mut fresh = cosmos_sim::CosmosPlatform::default_platform();
    fresh.flash = db.platform_mut().flash.clone();
    let configs = tables.iter().map(|(t, _)| (t.to_string(), small_table())).collect();
    let mut rec = NkvDb::recover(fresh, configs).unwrap();
    rec.enable_cache(8 << 20);
    for (table, base) in tables {
        put_flush(&mut rec, table, base + 3_001..=base + 3_040);
    }
    for _warm in 0..2 {
        for (table, base) in tables {
            let old = (1..=300).chain(1_001..=1_040).chain(2_001..=2_040);
            for key in old.chain(3_001..=3_040).map(|k| base + k) {
                for backend in [Backend::Software, Backend::Hardware] {
                    let (got, _) = rec.get(table, key, backend).unwrap();
                    assert_eq!(got, Some(record_for(key)), "`{table}` key {key} on {backend:?}");
                }
            }
        }
    }
}

#[test]
fn recovery_without_manifest_fails_cleanly() {
    let platform = cosmos_sim::CosmosPlatform::default_platform();
    let err = NkvDb::recover(platform, vec![("papers".into(), table_cfg())]);
    assert!(err.is_err());
}

#[test]
fn recovery_rejects_mismatched_format() {
    let mut db = NkvDb::default_db();
    db.create_table("papers", table_cfg()).unwrap();
    let cfg = PubGraphConfig { papers: 100, refs: 100, seed: 23 };
    db.bulk_load("papers", PaperGen::new(cfg).map(|p| encode(&p))).unwrap();
    db.persist().unwrap();
    let mut fresh = cosmos_sim::CosmosPlatform::default_platform();
    fresh.flash = db.platform_mut().flash.clone();
    // Supply the 20-byte Ref format for the 80-byte papers table.
    let m = ndp_spec::parse(PAPER_REF_SPEC).unwrap();
    let wrong = TableConfig::new(elaborate(&m, ndp_workload::REF_PE).unwrap());
    match NkvDb::recover(fresh, vec![("papers".into(), wrong)]) {
        Err(NkvError::Config(msg)) => assert_eq!(
            msg,
            "table `papers`: manifest records are 80 bytes but the supplied format is 20 bytes"
        ),
        Err(other) => panic!("expected format mismatch, got {other:?}"),
        Ok(_) => panic!("expected format mismatch, got a recovered database"),
    }
}

#[test]
fn recovery_requires_a_config_for_every_table() {
    let mut db = NkvDb::default_db();
    db.create_table("papers", table_cfg()).unwrap();
    let cfg = PubGraphConfig { papers: 50, refs: 50, seed: 24 };
    db.bulk_load("papers", PaperGen::new(cfg).map(|p| encode(&p))).unwrap();
    db.persist().unwrap();
    let mut fresh = cosmos_sim::CosmosPlatform::default_platform();
    fresh.flash = db.platform_mut().flash.clone();
    match NkvDb::recover(fresh, vec![]) {
        Err(NkvError::Config(msg)) => assert!(msg.contains("papers")),
        Err(other) => panic!("expected missing-config error, got {other:?}"),
        Ok(_) => panic!("expected missing-config error, got a recovered database"),
    }
}

#[test]
fn torn_manifest_slot_recovers_the_previous_epoch() {
    // Two persists land in alternating slots. Tearing the newer slot
    // (as a power cut mid-manifest-write would) must make recovery fall
    // back to the older epoch's state — not fail, not mix the two.
    let mut db = NkvDb::default_db();
    db.create_table("papers", table_cfg()).unwrap();
    let cfg = PubGraphConfig { papers: 500, refs: 500, seed: 26 };
    db.bulk_load("papers", PaperGen::new(cfg).map(|p| encode(&p))).unwrap();
    db.persist().unwrap(); // epoch 1 -> slot 1
    let mut extra = PaperGen::paper_at(&cfg, 0);
    extra.id = 90_000;
    db.put("papers", encode(&extra)).unwrap();
    db.flush("papers").unwrap();
    db.persist().unwrap(); // epoch 2 -> slot 0

    let mut fresh = cosmos_sim::CosmosPlatform::default_platform();
    fresh.flash = db.platform_mut().flash.clone();
    // Tear epoch 2's slot: corrupt the first page of slot 0 (the
    // topmost page of channel 0 / LUN 0), at the old device's clock.
    let (top, now) = (fresh.flash.config().pages_per_lun - 1, db.clock());
    let addr = cosmos_sim::PhysAddr { channel: 0, lun: 0, page: top };
    let mut torn = fresh.flash.read_page(addr, now).unwrap().1.to_vec();
    torn.truncate(16); // only the header reached the cells
    fresh.flash.program_page(addr, &torn, now).unwrap();

    let mut rec = NkvDb::recover(fresh, vec![("papers".into(), table_cfg())]).unwrap();
    // Epoch 1 state: the bulk data is there, the later put is not.
    let p = PaperGen::paper_at(&cfg, 123);
    let (got, _) = rec.get("papers", p.id, Backend::Software).unwrap();
    assert_eq!(got, Some(encode(&p)));
    let (gone, _) = rec.get("papers", 90_000, Backend::Software).unwrap();
    assert_eq!(gone, None, "the torn epoch's writes must not surface");
}

#[test]
fn half_written_index_fails_with_a_typed_error() {
    // A manifest that points at an index block whose pages never got
    // (fully) written — the half-written-index crash window. Recovery
    // must fail with a typed error, never panic or half-load the table.
    use nkv::recovery::{write_manifest, Manifest, TableManifest};
    let mut flash = cosmos_sim::FlashArray::new(cosmos_sim::FlashConfig::default());
    let garbage = cosmos_sim::PhysAddr { channel: 3, lun: 1, page: 10 };
    flash.program_page(garbage, &[0xAB; 64], 0).unwrap();
    let unwritten = cosmos_sim::PhysAddr { channel: 3, lun: 1, page: 11 };
    for bad_pages in [vec![garbage], vec![unwritten]] {
        let manifest = Manifest {
            epoch: 1,
            tables: vec![TableManifest {
                name: "papers".into(),
                record_bytes: 80,
                unique_keys: true,
                ssts: vec![(0, bad_pages)],
            }],
        };
        write_manifest(&mut flash, &manifest, 0).unwrap();
        let mut fresh = cosmos_sim::CosmosPlatform::default_platform();
        fresh.flash = flash.clone();
        match NkvDb::recover(fresh, vec![("papers".into(), table_cfg())]) {
            Err(NkvError::Config(msg)) => assert!(msg.contains("index")),
            Err(NkvError::Flash(_)) => {} // unwritten index page
            Err(other) => panic!("expected a typed index error, got {other:?}"),
            Ok(_) => panic!("recovery must not succeed from a half-written index"),
        }
    }
}

#[test]
fn unflushed_memtable_data_is_volatile() {
    // Documented LSM-without-WAL semantics: unflushed writes are lost.
    let mut db = NkvDb::default_db();
    db.create_table("papers", table_cfg()).unwrap();
    let cfg = PubGraphConfig { papers: 100, refs: 100, seed: 25 };
    db.bulk_load("papers", PaperGen::new(cfg).map(|p| encode(&p))).unwrap();
    let mut extra = PaperGen::paper_at(&cfg, 0);
    extra.id = 90_000; // beyond the bulk range, memtable only
    db.put("papers", encode(&extra)).unwrap();
    db.persist().unwrap(); // no flush!
    let mut fresh = cosmos_sim::CosmosPlatform::default_platform();
    fresh.flash = db.platform_mut().flash.clone();
    let mut rec = NkvDb::recover(fresh, vec![("papers".into(), table_cfg())]).unwrap();
    let (gone, _) = rec.get("papers", 90_000, Backend::Software).unwrap();
    assert_eq!(gone, None, "memtable contents do not survive a power cycle");
}

#[test]
fn a_recovered_device_starts_its_clock_on_idle_timelines() {
    // A power cycle leaves nothing in flight, so recovery costs the same
    // simulated time from the image taken at the last persist as from
    // the image of a device that went on reading for a long time after
    // it: the flash array carries its pages over, not its reservations.
    let mut db = NkvDb::default_db();
    db.create_table("papers", table_cfg()).unwrap();
    let cfg = PubGraphConfig { papers: 2000, refs: 2000, seed: 27 };
    db.bulk_load("papers", PaperGen::new(cfg).map(|p| encode(&p))).unwrap();
    db.persist().unwrap();
    let at_persist = db.platform_mut().flash.clone();
    let rules = [FilterRule { lane: paper_lanes::YEAR, op_code: 5, value: 1950 }];
    for _ in 0..4 {
        db.scan("papers", &rules, Backend::Hardware).unwrap();
    }
    let recover = |flash: &cosmos_sim::FlashArray| {
        let mut fresh = cosmos_sim::CosmosPlatform::default_platform();
        fresh.flash = flash.clone();
        fresh.enable_tracing(1 << 16);
        NkvDb::recover(fresh, vec![("papers".into(), table_cfg())]).unwrap()
    };
    let mut ran_ahead = recover(&db.platform_mut().flash);
    // The manifest read is the recovered device's first flash job, at
    // t = 0 on an idle LUN, not behind the old device's last scan.
    let first_read = ran_ahead
        .take_trace()
        .into_iter()
        .find(|e| matches!(e.kind, cosmos_sim::TraceKind::FlashRead { .. }))
        .expect("recovery reads the manifest");
    assert_eq!(first_read.start, 0, "{first_read:?}");
    assert_eq!(ran_ahead.clock(), recover(&at_persist).clock());
    assert!(ran_ahead.clock() < db.clock() / 4, "{} vs {}", ran_ahead.clock(), db.clock());
}

/// Rounds `rounds` of 40 PUTs over keys 1..=80 (year `1900 + round`),
/// each round flushed. On `COMPACTING` every third flush is followed by
/// a compaction at the next PUT.
fn rounds(rounds: std::ops::Range<u32>) -> Vec<common::Op> {
    use common::{paper, Op};
    let round = |r: u32| {
        let key = move |i: u64| 1 + (u64::from(r) * 40 + i) % 80;
        (0..40).map(move |i| Op::Put(paper(key(i), Some(1900 + r)))).chain([Op::Flush])
    };
    rounds.flat_map(round).collect()
}

/// An 8 KiB memtable and a C1 limit of 2: a few rounds flush, compact
/// and retire SSTs.
const COMPACTING: common::Table = common::Table::Papers { pes: 1, c1: Some(2) };

#[test]
fn a_compaction_after_the_last_persist_leaves_the_persisted_ssts_readable() {
    // The persisted manifest lists two C1 SSTs. Later rounds compact
    // them away (retired under the current manifest: kept), and compact
    // SSTs born after the persist (in no manifest: trimmed at once).
    // Power is cut before the next persist: recovery reads the two
    // persisted SSTs and answers every key from them. The recovered
    // device then compacts them away in turn, and a second cut before a
    // persist must find them again.
    use common::{run, Cfg, Op};
    let cfg = Cfg { table: COMPACTING, ..Cfg::default() };
    let writes: Vec<Op> =
        rounds(0..2).into_iter().chain([Op::Persist]).chain(rounds(2..8)).collect();
    let (mut store, mut model) = cfg.build(vec![], &writes);
    let db = store.db();
    assert!(db.level_sizes("papers").unwrap()[0] < 3, "the persisted SSTs were compacted");
    let flash = &db.platform_mut().flash;
    let page = u64::from(flash.config().page_bytes);
    assert!(flash.held_pages() * page < flash.stored_bytes(), "SSTs born since were trimmed");
    let reboot: Vec<Op> = [Op::PowerCycle].into_iter().chain((1..=80).map(Op::Get)).collect();
    run(&cfg, &mut store, &mut model, &reboot);
    run(&cfg, &mut store, &mut model, &rounds(8..11));
    assert!(store.db().level_sizes("papers").unwrap()[0] < 3, "the recovered SSTs were compacted");
    run(&cfg, &mut store, &mut model, &reboot);
}

#[test]
fn a_bad_newest_manifest_slot_falls_back_to_a_slot_whose_ssts_all_read_back() {
    // Epoch 1 lists three C1 SSTs; each later round flushes (and every
    // third one compacts at its first PUT), then persists. After every
    // persist the newest slot grows a bad page on a copy of the flash:
    // recovery falls back to the older slot, and a full scan of what it
    // lists must be the state persisted there — every SST it names reads
    // back, however many compactions retired them since.
    use common::{run, Cfg, Model, Op};
    let cfg = Cfg { table: COMPACTING, ..Cfg::default() };
    let state = |model: &Model| {
        let mut records: Vec<Vec<u8>> =
            model.keys().iter().map(|&k| model.get(k).unwrap().clone()).collect();
        records.sort();
        records
    };
    let (mut store, mut model) = cfg.build(vec![], &rounds(0..3));
    run(&cfg, &mut store, &mut model, &[Op::Persist]);
    let mut older = state(&model);
    for (epoch, round) in (2u64..).zip(3..9) {
        let ops: Vec<Op> = rounds(round..round + 1).into_iter().chain([Op::Persist]).collect();
        run(&cfg, &mut store, &mut model, &ops);
        let mut fresh = cosmos_sim::CosmosPlatform::default_platform();
        fresh.flash = store.db().platform_mut().flash.clone();
        // Epoch `e` is written to slot `e % 2`, whose first page sits
        // `8 * slot` pages below the top of channel 0 / LUN 0.
        let (top, slot) = (fresh.flash.config().pages_per_lun - 1, (epoch % 2) as u32);
        let bad = cosmos_sim::PhysAddr { channel: 0, lun: 0, page: top - 8 * slot };
        fresh.flash.inject_bad_page(bad);
        let mut rec = NkvDb::recover(fresh, vec![("papers".into(), COMPACTING.config())])
            .unwrap_or_else(|e| panic!("the slot before epoch {epoch} does not recover: {e}"));
        let all = rec.scan("papers", &[], Backend::Software).unwrap();
        let mut got: Vec<Vec<u8>> = all.records.chunks(80).map(<[u8]>::to_vec).collect();
        got.sort();
        assert_eq!(got, older, "fallback from epoch {epoch}");
        older = state(&model);
    }
}

#[test]
fn a_recovered_device_keeps_the_older_slots_ssts_for_a_later_fallback() {
    // Epoch 1 lists three C1 SSTs; key 1's rewrite compacts them away
    // and epoch 2 lists what replaced them. The device recovers from
    // epoch 2 and three more rounds flush and compact on it. Then epoch
    // 2's slot grows a bad page: recovery falls back to epoch 1, whose
    // three SSTs must still hold their records — the first recovery kept
    // the allocator off every page either slot lists.
    use common::{paper, run, Cfg, Op};
    let cfg = Cfg { table: COMPACTING, ..Cfg::default() };
    let (mut store, mut model) = cfg.build(vec![], &rounds(0..3));
    let ops = [Op::Persist, Op::Put(paper(1, Some(1903))), Op::Flush, Op::Persist, Op::PowerCycle];
    run(&cfg, &mut store, &mut model, &ops);
    run(&cfg, &mut store, &mut model, &rounds(3..6));
    let mut fresh = cosmos_sim::CosmosPlatform::default_platform();
    fresh.flash = store.db().platform_mut().flash.clone();
    fresh.flash.reboot();
    // Epoch 2 sits in slot 0, the topmost page of channel 0 / LUN 0.
    let top = fresh.flash.config().pages_per_lun - 1;
    fresh.flash.inject_bad_page(cosmos_sim::PhysAddr { channel: 0, lun: 0, page: top });
    let mut rec = NkvDb::recover(fresh, vec![("papers".into(), COMPACTING.config())]).unwrap();
    for key in 1..=80 {
        let year = if key <= 40 { 1902 } else { 1901 };
        let (got, _) = rec.get("papers", key, Backend::Software).unwrap();
        assert_eq!(got, Some(paper(key, Some(year))), "key {key} after the fallback to epoch 1");
    }
}
