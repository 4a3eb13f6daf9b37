//! Batched-GET slice of the differential harness (`tests/common`):
//! key-list batching must never change *what* a GET returns, only how
//! much configuration traffic it costs.
//!
//! Every test drives seeded key lists through batched GETs and checks
//! every key's outcome against the model:
//!
//! 1. **equivalence**: every backend x batch size {1, 2, 16, 64}
//!    returns byte-identical records for present keys and `Ok(None)`
//!    for absent ones;
//! 2. **batch-of-1 is the legacy path**: a singleton key list folds to
//!    the point-lookup plan and reproduces `get`'s record *and* its
//!    simulated nanoseconds exactly;
//! 3. **fault weather**: transient/correctable flash faults and PE
//!    hangs mid-batch degrade exactly like the per-key path — typed
//!    errors attributed to the right key, never a panic, never silent
//!    wrong data;
//! 4. **descriptor contract at the API**: empty, duplicate and
//!    over-capacity key lists are `NkvError::Config`, before any
//!    device work;
//! 5. **cluster split/merge**: a cluster batch splits per shard and
//!    re-merges to the model's bytes, as the unbatched per-key fan-out
//!    does, and a shard-level hang/power-cut mid-batch names the hole
//!    (`Available`) or fails typed (`Strict`) without disturbing the
//!    other shards' keys.

mod common;

use common::{puts, record_for, run, run_reports, trip, Cfg, Mix, Op, Weather};
use cosmos_sim::DeviceFaultKind;
use ndp_swgen::{job_io, DriverProfile, PeInvoke};
use nkv::{Backend, LogicalOp, NkvError, ReadPolicy};

const BATCHES: [usize; 4] = [1, 2, 16, 64];

/// `n` seeded GETs over keys 1..=470 of a 400-key table (so about 15 %
/// miss), as key lists of up to `batch` keys. A list never repeats a key
/// (a key list rejects duplicates by contract).
fn key_lists(seed: u64, n: u32, batch: usize) -> Vec<Op> {
    let gets = common::ops(seed, Mix { weights: [0, 0, 1, 0, 0], keys: 470 }, n);
    let key = |op: &Op| if let Op::Get(k) = op { *k } else { unreachable!("{op:?}") };
    let keys: Vec<u64> = gets.iter().map(key).collect();
    let list = |chunk: &[u64]| {
        let mut list: Vec<u64> = Vec::with_capacity(chunk.len());
        for k in chunk {
            if !list.contains(k) {
                list.push(*k);
            }
        }
        Op::MultiGet(list)
    };
    keys.chunks(batch).map(list).collect()
}

/// A fleet of 4 devices.
fn fleet(read_policy: ReadPolicy) -> Cfg {
    Cfg { devices: 4, read_policy, ..Cfg::default() }.on(Backend::Hardware)
}

#[test]
fn every_backend_and_batch_size_matches_the_model() {
    for mode in [Backend::Hardware, Backend::Software] {
        for batch in BATCHES {
            let cfg = Cfg::default().on(mode);
            let (mut store, mut model) = cfg.build(vec![], &puts(400));
            let lists = key_lists(0xBA7C, 128, batch);
            for (_, report) in run_reports(&cfg, &mut store, &mut model, &lists) {
                assert!(report.sim_ns > 0, "mode={mode:?} batch={batch}");
            }
        }
    }
}

#[test]
fn batch_of_one_is_the_legacy_path_to_the_nanosecond() {
    let cfg = Cfg::default();
    let [(mut legacy, mut legacy_model), (mut batched, mut batched_model)] =
        [(), ()].map(|()| cfg.build(vec![], &puts(300)));
    let keys = [1u64, 77, 150, 299, 300, 9_999];
    for mode in [Backend::Hardware, Backend::Software] {
        let gets = run_reports(&cfg.on(mode), &mut legacy, &mut legacy_model, &keys.map(Op::Get));
        let lists = keys.map(|k| Op::MultiGet(vec![k]));
        let singletons = run_reports(&cfg.on(mode), &mut batched, &mut batched_model, &lists);
        for ((key, (_, want)), (_, got)) in keys.iter().zip(gets).zip(singletons) {
            assert_eq!(
                got.sim_ns, want.sim_ns,
                "mode={mode:?} key={key}: a singleton batch must cost exactly the legacy path"
            );
        }
    }
}

/// What batching saves is modelled, not incidental: the firmware keeps
/// no rule cache across a serial GET's block jobs, so it re-programs the
/// PE cold for *every* block the walk searches; only a key list carries
/// one configuration across blocks and keys. No committed artifact pins
/// this — a walk that shared the configured flag across a serial GET's
/// blocks would only move the benchmark's `sim_digest`.
#[test]
fn a_serial_hardware_get_reprograms_the_pe_cold_for_every_block_it_searches() {
    // Churn: keys arrive scattered, so every L0 SST spans the whole key
    // range and a GET for an older key has to get past each newer SST's
    // bloom filter — a false positive costs a searched block.
    let n = 1_500u64;
    let cfg = Cfg::default().on(Backend::Hardware);
    let writes: Vec<Op> = (0..n).map(|i| Op::Put(record_for(1 + (i * 7_919) % n))).collect();
    let (mut store, mut model) = cfg.build(vec![], &writes);
    let gets: Vec<Op> = (1..=n).map(Op::Get).collect();
    let reports: Vec<_> = run_reports(&cfg, &mut store, &mut model, &gets)
        .into_iter()
        .zip(1..=n)
        .map(|((_, report), key)| (key, report))
        .collect();
    // The cold cost of a one-rule job, read off a one-block GET.
    let (easy_key, cold) =
        reports.iter().find(|(_, r)| r.blocks == 1).expect("some GET searches one block");
    let stages = cfg.table.config().pe.stages;
    let warm = job_io(DriverProfile::Generated, stages, 1, PeInvoke::Warm, false);
    assert!(cold.reg_writes > warm.reg_writes, "cold writes rules too");
    let (key, serial) = reports
        .iter()
        .find(|(_, r)| r.blocks >= 2)
        .expect("some bloom false positive makes a GET search two blocks");
    assert_eq!(serial.reg_writes, serial.blocks * cold.reg_writes, "key {key}: cold per block");
    assert_eq!(serial.reg_reads, serial.blocks * cold.reg_reads, "key {key}: cold per block");
    // The same key in a list of two: one cold configuration, then one
    // START strobe per further block — cheaper than the serial key alone.
    let pair = [Op::MultiGet(vec![*key, *easy_key])];
    let [(_, batched)] = run_reports(&cfg, &mut store, &mut model, &pair).try_into().unwrap();
    let strobes = serial.blocks
        * job_io(DriverProfile::Generated, stages, 1, PeInvoke::Keyed, false).reg_writes;
    assert_eq!(batched.reg_writes, cold.reg_writes + strobes);
    assert!(batched.reg_writes < serial.reg_writes, "{batched:?} vs {serial:?}");
}

#[test]
fn descriptor_shape_violations_are_typed_config_errors() {
    let (mut store, _) = Cfg::default().build(vec![], &puts(64));
    let db = store.db();
    let cases: [(&str, Vec<u64>); 3] =
        [("empty", vec![]), ("duplicate", vec![1, 2, 3, 2]), ("over-capacity", (0..600).collect())];
    for (name, keys) in cases {
        match db.multi_get("papers", &keys, Backend::Hardware) {
            Err(NkvError::Config(msg)) => {
                assert!(msg.contains("papers"), "{name}: Config error should name the table: {msg}")
            }
            other => panic!("{name} key list must be NkvError::Config, got {other:?}"),
        }
    }
    // Shape checks happen before any device work: a valid follow-up
    // batch still runs on the same handle.
    let (results, _) = db.multi_get("papers", &[1, 2, 3], Backend::Hardware).unwrap();
    assert_eq!(results.len(), 3);
}

/// Transient + correctable flash weather: the retry/read-repair layers
/// absorb it, so every batched result still matches the model; the only
/// permissible failures are the typed errors the weather allows the
/// per-key path, attributed to the exact key that hit them (or, when the
/// shared index walk failed, to the whole batch).
#[test]
fn transient_ecc_weather_never_changes_bytes() {
    let mut injected = 0u64;
    for batch in [2usize, 16, 64] {
        let cfg =
            Cfg { weather: Weather::FlashStorm, seed: 0xECC0 + batch as u64, ..Cfg::default() };
        let (mut store, mut model) = cfg.build(vec![], &puts(400));
        let cfg = cfg.on(Backend::Hardware);
        run(&cfg, &mut store, &mut model, &key_lists(0x5EED + batch as u64, 128, batch));
        // Batch sharing legitimately shrinks the flash-read count (and
        // with it the fault-roll count), so injection is asserted over
        // the whole campaign, not per batch size.
        let health = store.db().device_stats().health;
        injected += health.flash.transient_failures + health.flash.correctable_hits;
    }
    assert!(injected > 0, "the campaign never injected a fault");
}

/// PE hangs firing mid-batch: the watchdog retires the PE and the walk
/// falls back to software for the remaining keys — same bytes, typed
/// health counters, no panic.
#[test]
fn pe_hang_mid_batch_falls_back_without_corruption() {
    for batch in [2usize, 16, 64] {
        let cfg =
            Cfg { weather: Weather::HangBursts, seed: 0x4A6 + batch as u64, ..Cfg::default() };
        let (mut store, mut model) = cfg.build(vec![], &puts(400));
        run(&cfg.on(Backend::Hardware), &mut store, &mut model, &key_lists(0xF00D, 96, batch));
        let health = store.db().device_stats().health;
        assert!(health.pe_hangs_injected > 0, "batch={batch}: the campaign never hung a PE");
        assert!(
            health.watchdog_trips > 0 || health.sw_fallback_blocks > 0,
            "batch={batch}: a hang must surface in the health counters"
        );
    }
}

// ------------------------------------------------------------- cluster

#[test]
fn cluster_batches_split_per_shard_and_merge_like_unbatched_fanout() {
    let cfg = fleet(ReadPolicy::Available);
    for batch in BATCHES {
        let lists = key_lists(0xC1, 128, batch);
        let keys = |op: &Op| if let Op::MultiGet(k) = op { k.clone() } else { unreachable!() };
        let single: Vec<Op> = lists.iter().flat_map(keys).map(Op::Get).collect();
        // Both answer every key from the model: the batched split and
        // merge, and the unbatched per-key fan-out.
        for ops in [lists, single] {
            let (mut store, mut model) = cfg.loaded(400);
            run(&cfg, &mut store, &mut model, &ops);
        }
    }
}

#[test]
fn shard_fault_mid_batch_names_the_hole_or_fails_typed() {
    let victim = 2usize;
    let keys: Vec<u64> = (1..=64).collect();
    let batch = LogicalOp::MultiGet { keys: keys.clone() };
    for kind in [DeviceFaultKind::Hang, DeviceFaultKind::PowerCut] {
        let [(mut available, model), (mut strict, _)] =
            [ReadPolicy::Available, ReadPolicy::Strict].map(|policy| fleet(policy).loaded(400));
        // Available: victim keys read Ok(None) + missing_shards names
        // the victim; other shards' keys are untouched.
        let cluster = available.fleet();
        trip(cluster, victim, kind);
        let mut saw_missing = false;
        for _ in 0..6 {
            let (got, missing) = cluster.execute("papers", &batch, Backend::Hardware).unwrap();
            let (results, _) = got.into_batch().unwrap();
            for (key, res) in keys.iter().zip(&results) {
                let rec = res.as_ref().unwrap_or_else(|e| panic!("{kind:?}: get({key}) -> {e}"));
                if cluster.shard_for_key(*key) == victim && !missing.is_empty() {
                    assert_eq!(*rec, None, "{kind:?}: victim key {key} must read as a hole");
                } else {
                    assert_eq!(
                        rec.as_ref(),
                        model.get(*key),
                        "{kind:?}: surviving key {key} diverged"
                    );
                }
            }
            if !missing.is_empty() {
                assert_eq!(missing, vec![victim], "{kind:?}");
                saw_missing = true;
            }
        }
        assert!(saw_missing, "{kind:?}: the shard fault never surfaced on the batch");

        // Strict: the same batch is a typed error naming the victim.
        let strict = strict.fleet();
        trip(strict, victim, kind);
        let mut failed = false;
        for _ in 0..6 {
            match strict.execute("papers", &batch, Backend::Hardware) {
                Ok(_) => {}
                Err(NkvError::ShardUnavailable { shard, .. }) => {
                    assert_eq!(shard, victim, "{kind:?}");
                    failed = true;
                    break;
                }
                Err(e) => panic!("{kind:?}: strict multi_get -> unexpected {e}"),
            }
        }
        assert!(failed, "{kind:?}: strict policy must surface the dead shard");
    }
}
