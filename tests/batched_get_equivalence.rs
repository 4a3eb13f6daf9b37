//! Batched-GET differential suite: key-list batching must never change
//! *what* a GET returns, only how much configuration traffic it costs.
//!
//! Every test drives the same key schedule through batched key lists
//! and checks the per-key outcomes against a `BTreeMap` model (and,
//! where it matters, against the legacy per-key path on an identical
//! device):
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
//!    re-merges to the same bytes as an unbatched per-key fan-out,
//!    and a shard-level hang/power-cut mid-batch names the hole
//!    (`Available`) or fails typed (`Strict`) without disturbing the
//!    other shards' keys.

mod common;

use common::{build_db, record_for};
use cosmos_sim::faults::FaultPlan;
use cosmos_sim::{DeviceFaultKind, DeviceFaultPlan};
use ndp_swgen::{job_io, DriverProfile, PeInvoke};
use ndp_workload::SplitMix64;
use nkv::{Backend, ClusterConfig, NkvCluster, NkvDb, NkvError, ReadPolicy, TableConfig};
use std::collections::BTreeMap;

const BATCHES: [usize; 4] = [1, 2, 16, 64];

fn table_cfg() -> TableConfig {
    common::table_cfg(1, 4)
}

/// The seeded key schedule: mostly present keys, a sprinkle of absent
/// ones, no duplicates within any `max_batch`-sized window (a key list
/// rejects duplicates by contract).
fn key_schedule(seed: u64, n_keys: u64, len: usize) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    let mut keys = Vec::with_capacity(len);
    while keys.len() < len {
        let k = if rng.gen_bool(0.85) {
            1 + rng.gen_u64(n_keys)
        } else {
            n_keys + 1_000 + rng.gen_u64(500)
        };
        let window = keys.len().saturating_sub(63);
        if !keys[window..].contains(&k) {
            keys.push(k);
        }
    }
    keys
}

#[test]
fn every_backend_and_batch_size_matches_the_model() {
    let schedule = key_schedule(0xBA7C, 400, 128);
    for mode in [Backend::Hardware, Backend::Software] {
        for batch in BATCHES {
            let (mut db, model) = build_db(400);
            for chunk in schedule.chunks(batch) {
                let (results, report) = db
                    .multi_get("papers", chunk, mode)
                    .unwrap_or_else(|e| panic!("mode={mode:?} batch={batch}: multi_get -> {e}"));
                assert_eq!(results.len(), chunk.len(), "mode={mode:?} batch={batch}");
                assert!(report.sim_ns > 0, "mode={mode:?} batch={batch}");
                for (key, res) in chunk.iter().zip(results) {
                    let got = res.unwrap_or_else(|e| {
                        panic!("mode={mode:?} batch={batch}: get({key}) -> {e}")
                    });
                    assert_eq!(
                        got,
                        model.get(key).cloned(),
                        "mode={mode:?} batch={batch}: get({key}) diverged from the model"
                    );
                }
            }
        }
    }
}

#[test]
fn batch_of_one_is_the_legacy_path_to_the_nanosecond() {
    let (mut legacy, _) = build_db(300);
    let (mut batched, _) = build_db(300);
    for mode in [Backend::Hardware, Backend::Software] {
        for key in [1u64, 77, 150, 299, 300, 9_999] {
            let (want, want_rep) = legacy.get("papers", key, mode).unwrap();
            let (results, got_rep) = batched.multi_get("papers", &[key], mode).unwrap();
            let [got] = <[_; 1]>::try_from(results).unwrap();
            assert_eq!(got.unwrap(), want, "mode={mode:?} key={key}");
            assert_eq!(
                got_rep.sim_ns, want_rep.sim_ns,
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
    let mut db = NkvDb::default_db();
    db.create_table("papers", table_cfg()).unwrap();
    for i in 0..n {
        db.put("papers", record_for(1 + (i * 7_919) % n)).unwrap();
    }
    let reports: Vec<_> =
        (1..=n).map(|key| (key, db.get("papers", key, Backend::Hardware).unwrap().1)).collect();
    // The cold cost of a one-rule job, read off a one-block GET.
    let (easy_key, cold) =
        reports.iter().find(|(_, r)| r.blocks == 1).expect("some GET searches one block");
    let stages = table_cfg().pe.stages;
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
    let (results, batched) = db.multi_get("papers", &[*key, *easy_key], Backend::Hardware).unwrap();
    assert!(results.iter().all(|r| matches!(r, Ok(Some(_)))));
    let strobes = serial.blocks
        * job_io(DriverProfile::Generated, stages, 1, PeInvoke::Keyed, false).reg_writes;
    assert_eq!(batched.reg_writes, cold.reg_writes + strobes);
    assert!(batched.reg_writes < serial.reg_writes, "{batched:?} vs {serial:?}");
}

#[test]
fn descriptor_shape_violations_are_typed_config_errors() {
    let (mut db, _) = build_db(64);
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
/// permissible failures are the same typed errors the per-key path can
/// surface, attributed to the exact key that hit them.
#[test]
fn transient_ecc_weather_never_changes_bytes() {
    let mut injected = 0u64;
    for batch in [2usize, 16, 64] {
        let (mut db, model) = build_db(400);
        db.enable_observability(1 << 14);
        db.platform_mut().install_faults(&FaultPlan {
            seed: 0xECC0 + batch as u64,
            transient_read_p: 0.05,
            correctable_p: 0.10,
            ..FaultPlan::default()
        });
        let schedule = key_schedule(0x5EED + batch as u64, 400, 128);
        for chunk in schedule.chunks(batch) {
            match db.multi_get("papers", chunk, Backend::Hardware) {
                Ok((results, _)) => {
                    for (key, res) in chunk.iter().zip(results) {
                        match res {
                            Ok(got) => assert_eq!(
                                got,
                                model.get(key).cloned(),
                                "batch={batch}: get({key}) diverged under ECC weather"
                            ),
                            Err(NkvError::RetriesExhausted { .. } | NkvError::Flash(_)) => {}
                            Err(e) => panic!("batch={batch}: get({key}) -> unexpected {e}"),
                        }
                    }
                }
                // A whole-batch failure may only be the same typed
                // infra errors (e.g. the shared index walk failed).
                Err(NkvError::RetriesExhausted { .. } | NkvError::Flash(_)) => {}
                Err(e) => panic!("batch={batch}: multi_get -> unexpected {e}"),
            }
        }
        // Batch sharing legitimately shrinks the flash-read count (and
        // with it the fault-roll count), so injection is asserted over
        // the whole campaign, not per batch size.
        let health = db.health_report();
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
        let (mut db, model) = build_db(400);
        db.enable_observability(1 << 14);
        db.platform_mut().install_faults(&FaultPlan {
            seed: 0x4A6 + batch as u64,
            pe_hang_p: 0.25,
            ..FaultPlan::default()
        });
        let schedule = key_schedule(0xF00D, 400, 96);
        for chunk in schedule.chunks(batch) {
            let (results, _) = db
                .multi_get("papers", chunk, Backend::Hardware)
                .unwrap_or_else(|e| panic!("batch={batch}: multi_get -> {e}"));
            for (key, res) in chunk.iter().zip(results) {
                let got = res.unwrap_or_else(|e| panic!("batch={batch}: get({key}) -> {e}"));
                assert_eq!(
                    got,
                    model.get(key).cloned(),
                    "batch={batch}: get({key}) diverged across a PE hang"
                );
            }
        }
        let health = db.health_report();
        assert!(health.pe_hangs_injected > 0, "batch={batch}: the campaign never hung a PE");
        assert!(
            health.watchdog_trips > 0 || health.sw_fallback_blocks > 0,
            "batch={batch}: a hang must surface in the health counters"
        );
    }
}

// ------------------------------------------------------------- cluster

fn build_cluster(
    devices: usize,
    policy: ReadPolicy,
    n: u64,
) -> (NkvCluster, BTreeMap<u64, Vec<u8>>) {
    let mut cluster =
        NkvCluster::new(ClusterConfig { devices, read_policy: policy, ..ClusterConfig::default() })
            .unwrap();
    cluster.create_table("papers", table_cfg()).unwrap();
    let records: Vec<Vec<u8>> = (1..=n).map(record_for).collect();
    let model: BTreeMap<u64, Vec<u8>> = (1..=n).map(|k| (k, record_for(k))).collect();
    cluster.bulk_load("papers", records).unwrap();
    cluster.persist().unwrap();
    (cluster, model)
}

#[test]
fn cluster_batches_split_per_shard_and_merge_like_unbatched_fanout() {
    let schedule = key_schedule(0xC1u64, 400, 128);
    for batch in BATCHES {
        let (mut batched, model) = build_cluster(4, ReadPolicy::Available, 400);
        let (mut fanout, _) = build_cluster(4, ReadPolicy::Available, 400);
        for chunk in schedule.chunks(batch) {
            let got = batched.multi_get("papers", chunk, Backend::Hardware).unwrap();
            assert!(got.missing_shards.is_empty(), "batch={batch}");
            assert_eq!(got.results.len(), chunk.len(), "batch={batch}");
            for (key, res) in chunk.iter().zip(got.results) {
                let rec = res.unwrap_or_else(|e| panic!("batch={batch}: get({key}) -> {e}"));
                // Model equivalence and per-key fan-out equivalence.
                assert_eq!(rec, model.get(key).cloned(), "batch={batch}: get({key})");
                let single = fanout.get("papers", *key, Backend::Hardware).unwrap();
                assert_eq!(
                    rec, single.record,
                    "batch={batch}: get({key}) diverged from the unbatched fan-out"
                );
            }
        }
    }
}

#[test]
fn shard_fault_mid_batch_names_the_hole_or_fails_typed() {
    for kind in [DeviceFaultKind::Hang, DeviceFaultKind::PowerCut] {
        // Available: victim keys read Ok(None) + missing_shards names
        // the victim; other shards' keys are untouched.
        let (mut cluster, model) = build_cluster(4, ReadPolicy::Available, 400);
        let victim = 2usize;
        cluster.install_device_fault(victim, DeviceFaultPlan { kind, after_ops: 0 }).unwrap();
        let keys: Vec<u64> = (1..=64).collect();
        let mut saw_missing = false;
        for _ in 0..6 {
            let got = cluster.multi_get("papers", &keys, Backend::Hardware).unwrap();
            for (key, res) in keys.iter().zip(&got.results) {
                let rec = res.as_ref().unwrap_or_else(|e| panic!("{kind:?}: get({key}) -> {e}"));
                if cluster.shard_for_key(*key) == victim && !got.missing_shards.is_empty() {
                    assert_eq!(*rec, None, "{kind:?}: victim key {key} must read as a hole");
                } else {
                    assert_eq!(
                        *rec,
                        model.get(key).cloned(),
                        "{kind:?}: surviving key {key} diverged"
                    );
                }
            }
            if !got.missing_shards.is_empty() {
                assert_eq!(got.missing_shards, vec![victim], "{kind:?}");
                saw_missing = true;
            }
        }
        assert!(saw_missing, "{kind:?}: the shard fault never surfaced on the batch");

        // Strict: the same batch is a typed error naming the victim.
        let (mut strict, _) = build_cluster(4, ReadPolicy::Strict, 400);
        strict.install_device_fault(victim, DeviceFaultPlan { kind, after_ops: 0 }).unwrap();
        let mut failed = false;
        for _ in 0..6 {
            match strict.multi_get("papers", &keys, Backend::Hardware) {
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
