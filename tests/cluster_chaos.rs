//! Cluster chaos slice of the differential harness (`tests/common`):
//! fleet-level fault domains under seeded campaigns, checked against the
//! model and a per-shard byte reference.
//!
//! The single-device chaos suite (`tests/chaos.rs`) proves one device
//! degrades safely; this suite proves the *router* does, across N
//! simulated Cosmos+ devices:
//!
//! 1. **pass-through**: with one device, every cluster operation is
//!    byte-identical to calling the [`NkvDb`] directly — same records,
//!    same simulated nanoseconds, same queue report;
//! 2. **survivor correctness**: with a device killed/hung/power-cut
//!    mid-run, `Available`-policy reads return exactly the surviving
//!    shards' bytes (model minus the dead shard), never torn or
//!    reordered, and name the hole in `missing_shards`;
//! 3. **strictness**: `Strict`-policy reads fail with a typed
//!    [`NkvError::ShardUnavailable`] instead;
//! 4. **health FSM**: under sustained faults a shard's state walks the
//!    severity ladder monotonically (`Healthy → Degraded → Quarantined
//!    → Dead`), quarantined shards keep probing, dead shards stay dead
//!    until an explicit heal, and healing re-converges the cluster;
//! 5. **gray failure**: a slow-but-alive device changes *when*, never
//!    *what* — identical bytes, stretched simulated time.

mod common;

use common::{lt, record_for, run_reports, trip, Cfg, Op, Table, Tier};
use cosmos_sim::DeviceFaultKind;
use ndp_ir::AggOp;
use ndp_pe::oracle::FilterRule;
use ndp_workload::spec::paper_lanes;
use ndp_workload::SplitMix64;
use nkv::{
    Backend, ClientScript, ClusterConfig, LogicalOp, NkvCluster, NkvDb, NkvError, NkvResult,
    PlanOutcome, QueueRunConfig, QueuedOp, ReadPolicy, ScanSummary, ShardState,
};

/// The chaos suite's tiny-LSM papers table with `pes` PEs on `devices`
/// shards (0: one bare device), at `streams` job streams per shard.
fn cfg(devices: usize, read_policy: ReadPolicy, pes: usize, streams: usize) -> Cfg {
    let table = Table::Papers { pes, c1: Some(2) };
    Cfg { table, streams, devices, read_policy, ..Cfg::default() }
}

/// `shard`'s health-FSM state.
fn state(cluster: &NkvCluster, shard: usize) -> ShardState {
    cluster.cluster_stats().shards[shard].state
}

/// GET `key` on `backend` until `shard` is `target`, at most `ops`
/// times: whether it got there.
fn drive(
    cluster: &mut NkvCluster,
    key: u64,
    backend: Backend,
    shard: usize,
    target: ShardState,
    ops: usize,
) -> bool {
    (0..ops).any(|_| {
        cluster.get("papers", key, backend).unwrap();
        state(cluster, shard) == target
    })
}

/// Three clients' queue scripts of `n` ops; client `c`'s op `i` is `op(c, i)`.
fn scripts(n: u64, op: impl Fn(u64, u64) -> QueuedOp) -> Vec<ClientScript> {
    let script = |c| ClientScript { ops: (0..n).map(|i| op(c, i)).collect(), ..Default::default() };
    (0..3).map(script).collect()
}

/// Match-everything predicate (year < 3000).
fn all_rules() -> Vec<FilterRule> {
    vec![lt(paper_lanes::YEAR, 3000)]
}

/// One shard's full-scan bytes through `backend`, straight off its
/// device — the byte reference cluster merges must reproduce.
fn shard_scan_bytes(cluster: &mut NkvCluster, shard: usize, backend: Backend) -> (Vec<u8>, u64) {
    let db = cluster.shard_db(shard).unwrap();
    match db.execute("papers", &LogicalOp::Scan { rules: all_rules() }, backend).unwrap() {
        PlanOutcome::Records { records, count, .. } => (records, count),
        other => panic!("scan lowered to {other:?}"),
    }
}

/// A fleet-wide full scan through `backend`: the merged records and the
/// shards that could not serve.
fn fleet_scan(cluster: &mut NkvCluster, backend: Backend) -> NkvResult<(ScanSummary, Vec<usize>)> {
    let (outcome, missing) =
        cluster.execute("papers", &LogicalOp::Scan { rules: all_rules() }, backend)?;
    Ok((outcome.into_scan()?, missing))
}

/// One seeded mid-run device-fault campaign: load, capture the per-shard
/// byte reference, trip `kind` on one device, drive reads through
/// `backend` while asserting survivor byte-identity and FSM
/// monotonicity, then heal and assert re-convergence.
fn fault_campaign(kind: DeviceFaultKind, backend: Backend, streams: usize) {
    let ctx = format!("kind={kind:?} backend={backend:?} streams={streams}");
    let (mut store, model) = cfg(4, ReadPolicy::Available, 4, streams).loaded(400);
    let cluster = store.fleet();
    let victim = 1usize;

    let per_shard: Vec<(Vec<u8>, u64)> =
        (0..4).map(|s| shard_scan_bytes(cluster, s, backend)).collect();
    let full: Vec<u8> = per_shard.iter().flat_map(|(r, _)| r.clone()).collect();
    let (pre, missing) = fleet_scan(cluster, backend).unwrap();
    assert_eq!(pre.records, full, "{ctx}: clean cluster scan must concat shard scans in order");
    assert_eq!(pre.count, 400, "{ctx}");
    assert!(missing.is_empty(), "{ctx}");

    trip(cluster, victim, kind);

    let mut last_severity = state(cluster, victim).severity();
    let mut saw_missing_get = false;
    let mut saw_missing_scan = false;
    for step in 0..80u64 {
        let key = 1 + (step * 7) % 400;
        let owner = cluster.shard_for_key(key);
        let got = cluster.get("papers", key, backend).unwrap();
        if got.missing_shards.is_empty() {
            assert_eq!(
                got.record.as_ref(),
                model.get(key),
                "{ctx} step {step}: surviving get({key}) diverged"
            );
        } else {
            assert_eq!(got.missing_shards, vec![victim], "{ctx} step {step}");
            assert_eq!(owner, victim, "{ctx} step {step}: only the victim may go missing");
            assert_eq!(got.record, None, "{ctx} step {step}");
            saw_missing_get = true;
        }
        let severity = state(cluster, victim).severity();
        assert!(
            severity >= last_severity,
            "{ctx} step {step}: severity regressed {last_severity} -> {severity} without a heal"
        );
        last_severity = severity;

        if step % 10 == 9 {
            let (scan, missing) = fleet_scan(cluster, backend).unwrap();
            let expected: Vec<u8> = (0..4usize)
                .filter(|s| !missing.contains(s))
                .flat_map(|s| per_shard[s].0.clone())
                .collect();
            assert_eq!(
                scan.records, expected,
                "{ctx} step {step}: survivors must be byte-identical to the reference"
            );
            if !missing.is_empty() {
                assert_eq!(missing, vec![victim], "{ctx} step {step}");
                saw_missing_scan = true;
            }
        }
    }
    assert!(saw_missing_get, "{ctx}: the fault never surfaced on the GET path");
    assert!(saw_missing_scan, "{ctx}: the fault never surfaced on the SCAN path");
    assert_eq!(
        state(cluster, victim),
        ShardState::Dead,
        "{ctx}: sustained rejection must walk the victim to Dead"
    );
    let probes = cluster.cluster_stats().shards[victim].probes_sent;
    assert!(probes >= 3, "{ctx}: quarantine must have probed (got {probes})");

    // Operator repair: the shard rejoins and the namespace re-converges.
    cluster.heal_shard(victim).unwrap();
    assert_eq!(state(cluster, victim), ShardState::Recovered, "{ctx}");
    for key in model.keys().into_iter().filter(|k| k % 5 == 0) {
        let got = cluster.get("papers", key, backend).unwrap();
        assert!(got.missing_shards.is_empty(), "{ctx}: post-heal get({key}) still degraded");
        assert_eq!(got.record.as_ref(), model.get(key), "{ctx}: post-heal get({key}) diverged");
    }
    let (post, missing) = fleet_scan(cluster, backend).unwrap();
    assert!(missing.is_empty(), "{ctx}: post-heal scan still degraded");
    assert_eq!(post.count, 400, "{ctx}: post-heal scan count");
    if kind != DeviceFaultKind::PowerCut {
        // Hang/link-loss leave device state intact, so even the byte
        // order is exactly the pre-fault reference. (A power cut rebuilds
        // from flash; contents re-converge — asserted above — but SST ids
        // differ.)
        assert_eq!(post.records, full, "{ctx}: post-heal scan bytes");
    }
    assert_eq!(
        state(cluster, victim),
        ShardState::Healthy,
        "{ctx}: successful post-heal traffic must promote the shard back to Healthy"
    );
}

/// The ISSUE's core matrix: kill (link loss), hang and power-cut one
/// device mid-run, for every backend and both dispatch styles (serial
/// and 2 parallel PE job streams).
#[test]
fn seeded_device_fault_campaigns_every_backend_and_stream_count() {
    for kind in [DeviceFaultKind::Hang, DeviceFaultKind::PowerCut, DeviceFaultKind::LinkLoss] {
        for backend in [Backend::Software, Backend::Hardware, Backend::Hybrid] {
            for streams in [0, 2] {
                fault_campaign(kind, backend, streams);
            }
        }
    }
}

/// With one device the cluster is a pass-through: identical bytes,
/// identical simulated time, identical queue report — for every read
/// shape, on a forced tier and on the adaptive one.
#[test]
fn single_device_cluster_is_byte_identical_to_a_standalone_db() {
    for backend in [Backend::Software, Backend::Hardware] {
        for streams in [0, 2] {
            let ctx = format!("backend={backend:?} streams={streams}");
            let solo_cfg = cfg(0, ReadPolicy::Strict, 4, streams);
            let [(mut solo, mut solo_model), (mut cluster, mut cluster_model)] =
                [solo_cfg, Cfg { devices: 1, ..solo_cfg }].map(|cfg| cfg.loaded(300));
            let mut ops = [1u64, 57, 170, 299, 100_000].map(Op::Get).to_vec();
            ops.push(Op::MultiGet(vec![1, 57, 299, 100_000]));
            ops.push(Op::MultiGet(vec![170]));
            ops.push(Op::Scan(all_rules()));
            // RANGE_SCAN is a 2-stage predicate chain and the paper PE has
            // one filtering stage and no aggregation unit, so both run in
            // software (the cluster and the standalone db must agree on
            // that too).
            let software = [Op::RangeScan(50, 150), Op::Aggregate(all_rules(), AggOp::Count, 0)];
            let every = [&ops[..], &software[..]].concat();
            for (tier, ops) in [
                (Tier::Forced(backend), &ops[..]),
                (Tier::Forced(Backend::Software), &software[..]),
                (Tier::Adaptive, &every[..]),
            ] {
                let solo_cfg = Cfg { tier, ..solo_cfg };
                let a = run_reports(&solo_cfg, &mut solo, &mut solo_model, ops);
                let fleet_cfg = Cfg { devices: 1, ..solo_cfg };
                let b = run_reports(&fleet_cfg, &mut cluster, &mut cluster_model, ops);
                for ((op, (a, ra)), (b, rb)) in ops.iter().zip(a).zip(b) {
                    assert_eq!((a, ra.sim_ns), (b, rb.sim_ns), "{ctx}: {op:?} bytes and time");
                }
            }
            let (solo, cluster) = (solo.db(), cluster.fleet());

            // The queued engine: same scripts, same report — on the
            // legacy path and through the auto-batching fold alike.
            let scripts = scripts(20, |c, i| match (c + i) % 6 {
                0 => QueuedOp::Scan { rules: all_rules() },
                1 => QueuedOp::Put { record: record_for(500 + c * 20 + i) },
                _ => QueuedOp::Get { key: 1 + (c * 37 + i * 11) % 300 },
            });
            for batch in [1u32, 8] {
                let qcfg = QueueRunConfig { batch, ..QueueRunConfig::default() };
                let solo_report = solo.run_queued("papers", &scripts, &qcfg).unwrap();
                let report = cluster.run_queued("papers", &scripts, &qcfg).unwrap();
                assert_eq!(report.logical_ops, 60, "{ctx} batch={batch}");
                assert_eq!(
                    report.completions,
                    solo_report.ops(),
                    "{ctx} batch={batch}: queued completions"
                );
                assert_eq!(
                    report.span_ns,
                    solo_report.finished_ns - solo_report.started_ns,
                    "{ctx} batch={batch}: queued span"
                );
                assert_eq!(
                    report.latency, solo_report.latency,
                    "{ctx} batch={batch}: queued latency histogram"
                );
                assert_eq!(report.shard_spans, vec![report.span_ns], "{ctx} batch={batch}");
            }
        }
    }
}

/// Batched queued runs split per shard and re-merge to the same bytes
/// as the unbatched fan-out: the router partitions each client's script
/// by key ownership, every shard folds its own GET runs, and the merged
/// result — completion counts during the run, and the full cross-shard
/// byte image after it — is identical to batch 1.
#[test]
fn batched_queued_runs_split_per_shard_and_rejoin_the_unbatched_bytes() {
    let scripts = scripts(24, |c, i| match (c + i) % 8 {
        0 => QueuedOp::Put { record: record_for(600 + c * 24 + i) },
        _ => QueuedOp::Get { key: 1 + (c * 41 + i * 13) % 300 },
    });
    let run = |batch: u32| {
        let (mut store, _) = cfg(4, ReadPolicy::Available, 4, 0).loaded(300);
        let cluster = store.fleet();
        let report = cluster
            .run_queued("papers", &scripts, &QueueRunConfig { batch, ..QueueRunConfig::default() })
            .unwrap();
        let (scan, missing) = fleet_scan(cluster, Backend::Software).unwrap();
        assert!(missing.is_empty(), "batch {batch}");
        (report, scan)
    };
    let (base, base_scan) = run(1);
    assert_eq!(base.logical_ops, 72);
    assert_eq!(base.completions, 72, "every op routes to exactly one shard");
    for batch in [2u32, 16] {
        let (b, scan) = run(batch);
        assert_eq!(b.logical_ops, base.logical_ops, "batch {batch}");
        assert_eq!(b.completions, base.completions, "batch {batch}: merged completion count");
        assert_eq!(scan.count, base_scan.count, "batch {batch}: post-run record count");
        assert_eq!(
            scan.records, base_scan.records,
            "batch {batch}: post-run cross-shard bytes diverged from the unbatched fan-out"
        );
    }
}

/// `Strict` reads fail loudly: a killed shard is a typed
/// [`NkvError::ShardUnavailable`] on both the point and fan-out paths,
/// while keys owned by survivors keep serving.
#[test]
fn strict_policy_turns_a_killed_shard_into_typed_errors() {
    let (mut store, model) = cfg(4, ReadPolicy::Strict, 1, 0).loaded(200);
    let cluster = store.fleet();
    let victim = 2usize;
    trip(cluster, victim, DeviceFaultKind::Hang);

    let victim_key = (1..=200u64).find(|k| cluster.shard_for_key(*k) == victim).unwrap();
    let survivor_key = (1..=200u64).find(|k| cluster.shard_for_key(*k) != victim).unwrap();

    match cluster.get("papers", victim_key, Backend::Hardware) {
        Err(NkvError::ShardUnavailable { shard, reason }) => {
            assert_eq!(shard, victim);
            assert!(reason.contains("hang"), "reason should name the fault: {reason}");
        }
        other => panic!("strict get on a hung shard: {other:?}"),
    }
    match fleet_scan(cluster, Backend::Hardware) {
        Err(NkvError::ShardUnavailable { shard, .. }) => assert_eq!(shard, victim),
        other => panic!("strict scan with a hung shard: {other:?}"),
    }
    let got = cluster.get("papers", survivor_key, Backend::Hardware).unwrap();
    assert_eq!(got.record.as_ref(), model.get(survivor_key));
    assert!(got.missing_shards.is_empty());

    // Writes are strict under either policy; the victim's keys bounce.
    match cluster.put("papers", record_for(victim_key)) {
        Err(NkvError::ShardUnavailable { shard, .. }) => assert_eq!(shard, victim),
        other => panic!("write to a hung shard: {other:?}"),
    }
    cluster.put("papers", record_for(survivor_key)).unwrap();
}

/// Property: under a sustained fault (no successful op, probe or heal),
/// the victim's severity is non-decreasing at every single step, across
/// seeded op mixes; and it always ends Dead with probes on record.
#[test]
fn shard_state_is_monotone_under_sustained_faults() {
    for seed in 0..8u64 {
        let (mut store, _) = cfg(4, ReadPolicy::Available, 1, 0).loaded(150);
        let cluster = store.fleet();
        let victim = (seed % 4) as usize;
        trip(cluster, victim, DeviceFaultKind::LinkLoss);
        let mut rng = SplitMix64::new(0xC1A0_5EED ^ seed);
        let mut last = state(cluster, victim).severity();
        for step in 0..120u32 {
            let key = rng.gen_range_u64(1, 151);
            if rng.gen_bool(0.8) {
                cluster.get("papers", key, Backend::Hardware).unwrap();
            } else {
                fleet_scan(cluster, Backend::Software).unwrap();
            }
            let severity = state(cluster, victim).severity();
            assert!(
                severity >= last,
                "seed {seed} step {step}: severity regressed {last} -> {severity}"
            );
            last = severity;
        }
        assert_eq!(state(cluster, victim), ShardState::Dead, "seed {seed}");
        assert!(cluster.cluster_stats().shards[victim].probes_sent > 0, "seed {seed}");
    }
}

/// A quarantined shard keeps probing on foreground traffic, and the
/// first probe after the fault clears brings it back — no operator
/// action, no restart.
#[test]
fn quarantined_shard_reprobes_and_recovers_when_the_fault_clears() {
    let (mut store, _) = cfg(4, ReadPolicy::Available, 1, 0).loaded(200);
    let cluster = store.fleet();
    let victim = 3usize;
    trip(cluster, victim, DeviceFaultKind::Hang);
    let victim_key = (1..=200u64).find(|k| cluster.shard_for_key(*k) == victim).unwrap();
    let survivor_key = (1..=200u64).find(|k| cluster.shard_for_key(*k) != victim).unwrap();

    // Drive victim traffic until the FSM quarantines it.
    let quarantined =
        drive(cluster, victim_key, Backend::Hardware, victim, ShardState::Quarantined, 40);
    assert!(quarantined, "sustained errors must quarantine the shard");
    let probes_before = cluster.cluster_stats().shards[victim].probes_sent;

    // The cable is reseated: clear the device fault out from under the
    // router. Only survivor traffic flows; probes must ride on it.
    cluster.shard_db(victim).unwrap().platform_mut().clear_device_fault();
    let recovered =
        drive(cluster, survivor_key, Backend::Hardware, victim, ShardState::Recovered, 20);
    assert!(recovered, "a probe must observe the cleared fault and recover the shard");
    assert!(
        cluster.cluster_stats().shards[victim].probes_sent > probes_before,
        "recovery must come from probing, not from routed traffic"
    );
    // And the shard serves again, correct bytes included.
    let got = cluster.get("papers", victim_key, Backend::Hardware).unwrap();
    assert!(got.missing_shards.is_empty());
    assert_eq!(got.record, Some(record_for(victim_key)));
}

/// Dead is sticky: once probes exhaust, even a cleared fault does not
/// revive the shard — only an explicit heal does.
#[test]
fn dead_shard_stays_dead_until_explicitly_healed() {
    let (mut store, _) = cfg(4, ReadPolicy::Available, 1, 0).loaded(200);
    let cluster = store.fleet();
    let victim = 0usize;
    trip(cluster, victim, DeviceFaultKind::LinkLoss);
    let victim_key = (1..=200u64).find(|k| cluster.shard_for_key(*k) == victim).unwrap();
    assert!(drive(cluster, victim_key, Backend::Software, victim, ShardState::Dead, 80));

    cluster.shard_db(victim).unwrap().platform_mut().clear_device_fault();
    for _ in 0..30 {
        let got = cluster.get("papers", victim_key, Backend::Software).unwrap();
        assert_eq!(got.missing_shards, vec![victim], "a dead shard must not serve");
    }
    assert_eq!(state(cluster, victim), ShardState::Dead);

    cluster.heal_shard(victim).unwrap();
    assert_eq!(state(cluster, victim), ShardState::Recovered);
    let got = cluster.get("papers", victim_key, Backend::Software).unwrap();
    assert!(got.missing_shards.is_empty());
    assert_eq!(got.record, Some(record_for(victim_key)));
}

/// Gray failure: a slow-but-alive device returns identical bytes with
/// stretched simulated time, and is never treated as failed.
#[test]
fn gray_slow_device_stretches_time_but_not_results() {
    let cfg = cfg(4, ReadPolicy::Available, 1, 0).on(Backend::Hardware);
    let [(mut clean, mut clean_model), (mut slow, mut slow_model)] =
        [(), ()].map(|()| cfg.loaded(200));
    let victim = 1usize;
    trip(slow.fleet(), victim, DeviceFaultKind::Slow { factor_x10: 30 });
    // Both answer from every shard, as the model says, in the same order.
    let victim_key = (1..=200u64).find(|k| clean.fleet().shard_for_key(*k) == victim).unwrap();
    let ops = [Op::Get(victim_key), Op::Scan(all_rules())];
    let fast = run_reports(&cfg, &mut clean, &mut clean_model, &ops);
    let slowed = run_reports(&cfg, &mut slow, &mut slow_model, &ops);
    for ((op, (a, _)), (b, _)) in ops.iter().zip(&fast).zip(&slowed) {
        assert_eq!(a, b, "{op:?}: gray failure changed bytes");
    }
    let [(get, scan), (slow_get, slow_scan)] =
        [fast, slowed].map(|r| (r[0].1.sim_ns, r[1].1.sim_ns));
    assert_eq!(slow_get, get * 3, "factor 3.0x must stretch time exactly");
    assert!(slow_scan > scan, "the slowed shard must dominate the device-parallel span");
    let slow = slow.fleet();
    assert_eq!(state(slow, victim), ShardState::Healthy, "slow is not sick");
    let stats = slow.shard_db(victim).unwrap().platform_mut().device_fault_stats().unwrap();
    assert!(stats.ops_slowed > 0, "the gray fault must account its slowdowns");
}

/// The health renderings operators grep are stable: the fleet snapshot
/// names every shard's FSM state with fixed wording and adds the FSM's
/// counters to the line of a shard that has erred or probed, and the
/// single-device [`nkv::HealthReport`] text is unchanged by the cluster
/// work.
#[test]
fn health_renderings_are_stable_across_the_new_states() {
    let (mut store, _) = cfg(4, ReadPolicy::Available, 1, 0).loaded(120);
    let cluster = store.fleet();
    // The virgin rendering, before any routed op has been scored.
    let fresh = NkvCluster::new(ClusterConfig::default()).unwrap().cluster_stats().to_string();
    assert!(fresh.starts_with("cluster stats: 4 shards, 0 ops,"), "fresh header drifted:\n{fresh}");
    assert!(
        fresh.contains("  shard 0 [healthy]: ops=0 busy="),
        "fresh shard line drifted:\n{fresh}"
    );
    assert!(!fresh.contains("routed="), "a fault-free shard shows no FSM counters:\n{fresh}");
    assert!(
        fresh.ends_with("  router: 0 retries (+0 ns backoff)"),
        "router line drifted:\n{fresh}"
    );

    // Walk shard 1 to Dead and shard 2 to Degraded, then check the
    // rendering names both, with their counters.
    trip(cluster, 1, DeviceFaultKind::Hang);
    let k1 = (1..=120u64).find(|k| cluster.shard_for_key(*k) == 1).unwrap();
    drive(cluster, k1, Backend::Software, 1, ShardState::Dead, 80);
    trip(cluster, 2, DeviceFaultKind::LinkLoss);
    let k2 = (1..=120u64).find(|k| cluster.shard_for_key(*k) == 2).unwrap();
    cluster.get("papers", k2, Backend::Software).unwrap();
    assert_eq!(state(cluster, 1), ShardState::Dead);
    assert_eq!(state(cluster, 2), ShardState::Degraded);

    let stats = cluster.cluster_stats();
    let text = stats.to_string();
    let line = |s: usize| text.lines().find(|l| l.starts_with(&format!("  shard {s} ["))).unwrap();
    assert!(line(0).starts_with("  shard 0 [healthy]: ") && !line(0).contains("routed="), "{text}");
    assert!(line(1).starts_with("  shard 1 [dead]: "), "{text}");
    assert!(line(1).ends_with(" probes=3 transitions=3"), "{text}");
    // The bulk load and the persist succeeded on shard 2, then one GET
    // failed: Healthy -> Degraded.
    assert!(line(2).starts_with("  shard 2 [degraded]: "), "{text}");
    assert!(line(2).ends_with(" routed=3 errors=1 probes=0 transitions=1"), "{text}");
    assert!(stats.router_retries > 0, "rejections must be counted as router retries");

    // The device-level health text predates the cluster layer and must
    // not have moved: byte-exact for a fresh device.
    let device = NkvDb::default_db().device_stats().health.to_string();
    assert_eq!(
        device,
        "health: injected 0 transient flash, 0 ecc-corrected, 0 grown-bad, 0 torn, \
         0 dram stalls (+0 ns), 0 pe hangs\n        reacted 0 retries (+0 ns backoff), \
         0 reads failed, 0 watchdog trips, 0 sw-fallback blocks, 0 PEs retired, 0 pages repaired"
    );
}

/// Range sharding keeps contiguous key ranges per device and prunes
/// RANGE_SCAN fan-out: a scan inside one shard's interval touches only
/// that shard, even with the rest of the fleet dead.
#[test]
fn range_sharding_prunes_range_scans_to_owning_shards() {
    let mut cluster = NkvCluster::new(ClusterConfig {
        devices: 3,
        strategy: nkv::ShardStrategy::Range { boundaries: vec![101, 201] },
        read_policy: ReadPolicy::Strict,
    })
    .unwrap();
    cluster.create_table("papers", cfg(3, ReadPolicy::Strict, 1, 0).table.config()).unwrap();
    cluster.bulk_load("papers", (1..=300).map(record_for).collect()).unwrap();
    cluster.persist().unwrap();

    // Kill shards 1 and 2; a range entirely inside shard 0 still works —
    // under Strict policy — because pruning proves the others hold
    // nothing.
    for s in [1usize, 2] {
        trip(&mut cluster, s, DeviceFaultKind::Hang);
    }
    let range = |lo, hi| LogicalOp::RangeScan { lo, hi };
    let (scan, missing) = cluster.execute("papers", &range(10, 101), Backend::Software).unwrap();
    assert_eq!(scan.into_scan().unwrap().count, 91, "keys 10..=100 live on shard 0");
    assert!(missing.is_empty());
    // A range crossing into shard 1 must hit the hung device and fail
    // strictly.
    match cluster.execute("papers", &range(50, 150), Backend::Software) {
        Err(NkvError::ShardUnavailable { shard: 1, .. }) => {}
        other => panic!("cross-shard range over a hung device: {other:?}"),
    }
    // An empty range prunes every shard, yet is validated like the one
    // device would: an unknown table and a chain too deep for the 1-stage
    // paper PE are errors, not empty answers.
    match cluster.execute("nope", &range(50, 50), Backend::Software) {
        Err(NkvError::UnknownTable(t)) => assert_eq!(t, "nope"),
        other => panic!("empty range over an unknown table: {other:?}"),
    }
    let deep = "predicate chain of 2 rules exceeds the PE's 1 filtering stage(s)";
    match cluster.execute("papers", &range(50, 50), Backend::Hardware) {
        Err(NkvError::Config(e)) => assert_eq!(e, deep),
        other => panic!("empty range too deep for the PE: {other:?}"),
    }
    for tier in [nkv::Tier::Adaptive, Backend::Software.into()] {
        let (scan, missing) = cluster.execute("papers", &range(50, 50), tier).unwrap();
        assert_eq!(scan.into_scan().unwrap().count, 0, "{tier:?}");
        assert!(missing.is_empty(), "{tier:?}");
    }
}

/// The router's retry policy, pinned: one fleet op on a shard whose
/// device rejects every admission is retried 3 times, backing off
/// 50 + 100 + 200 µs, before the shard is reported missing.
#[test]
fn a_rejecting_shard_costs_one_op_three_router_retries_and_350_us() {
    let (mut store, _) = cfg(2, ReadPolicy::Available, 1, 0).build(vec![], &[]);
    let fleet = store.fleet();
    let shard = fleet.shard_for_key(7);
    trip(fleet, shard, DeviceFaultKind::Hang);
    let got = fleet.get("papers", 7, Backend::Software).unwrap();
    assert_eq!((got.record, got.missing_shards), (None, vec![shard]));
    let stats = fleet.cluster_stats();
    assert_eq!(stats.router_retries, 3);
    assert!(stats.to_string().ends_with("router: 3 retries (+350000 ns backoff)"), "{stats}");
}

/// A fleet queued run over a gray-slow shard: that shard's span is
/// stretched by exactly the slow factor, every other shard's is not, and
/// what completes, with which device-side latencies, does not change.
#[test]
fn a_slow_shard_stretches_its_queued_span_and_nothing_else() {
    let scripts = scripts(16, |c, i| match (c + i) % 8 {
        0 => QueuedOp::Scan { rules: all_rules() },
        1 => QueuedOp::Put { record: record_for(700 + c * 16 + i) },
        _ => QueuedOp::Get { key: 1 + (c * 29 + i * 7) % 200 },
    });
    let victim = 1usize;
    let [clean, slow] = [None, Some(DeviceFaultKind::Slow { factor_x10: 30 })].map(|fault| {
        let (mut store, _) = cfg(4, ReadPolicy::Available, 1, 0).loaded(200);
        let cluster = store.fleet();
        if let Some(kind) = fault {
            trip(cluster, victim, kind);
        }
        cluster.run_queued("papers", &scripts, &QueueRunConfig::default()).unwrap()
    });
    for (shard, (&c, &s)) in clean.shard_spans.iter().zip(&slow.shard_spans).enumerate() {
        let want = if shard == victim { 3 * c } else { c };
        assert_eq!(s, want, "shard {shard}: span {c} ns clean");
    }
    assert_eq!(slow.completions, clean.completions);
    assert_eq!(slow.latency, clean.latency, "a slow device changes the span, not the CQEs");
}

/// A queued run needs every shard: one that is quarantined or dead
/// fails the run with a typed `ShardUnavailable` naming it, under either
/// read policy (a queued run has no partial mode).
#[test]
fn a_queued_run_over_an_unserving_shard_fails_under_both_policies() {
    let scripts = scripts(4, |c, i| QueuedOp::Get { key: 1 + c * 4 + i });
    let victim = 2usize;
    for policy in [ReadPolicy::Strict, ReadPolicy::Available] {
        for target in [ShardState::Quarantined, ShardState::Dead] {
            let ctx = format!("{policy:?} {target:?}");
            let (mut store, _) = cfg(4, policy, 1, 0).loaded(200);
            let cluster = store.fleet();
            trip(cluster, victim, DeviceFaultKind::LinkLoss);
            let key = (1..=200u64).find(|k| cluster.shard_for_key(*k) == victim).unwrap();
            let reached = (0..80).any(|_| {
                // A strict GET on the victim is itself an error.
                let _ = cluster.get("papers", key, Backend::Software);
                state(cluster, victim) == target
            });
            assert!(reached, "{ctx}: the victim never got there");
            match cluster.run_queued("papers", &scripts, &QueueRunConfig::default()) {
                Err(NkvError::ShardUnavailable { shard, .. }) => assert_eq!(shard, victim, "{ctx}"),
                other => panic!("{ctx}: queued run over an unserving shard: {other:?}"),
            }
        }
    }
}

/// A hung shard fails a queued run the way it fails a read: the router
/// retries the shard 3 times, backing off 50 + 100 + 200 µs, then fails
/// the run with the fault's reason and leaves the shard `Degraded`.
#[test]
fn a_hung_shard_fails_a_queued_run_after_three_router_retries() {
    let (mut store, _) = cfg(4, ReadPolicy::Available, 1, 0).loaded(200);
    let cluster = store.fleet();
    let victim = 1usize;
    trip(cluster, victim, DeviceFaultKind::Hang);
    let scripts = scripts(4, |c, i| QueuedOp::Get { key: 1 + c * 4 + i });
    match cluster.run_queued("papers", &scripts, &QueueRunConfig::default()) {
        Err(NkvError::ShardUnavailable { shard, reason }) => {
            assert_eq!((shard, reason.as_str()), (victim, "device hang"))
        }
        other => panic!("queued run over a hung shard: {other:?}"),
    }
    let stats = cluster.cluster_stats();
    assert_eq!(stats.router_retries, 3);
    assert!(stats.to_string().ends_with("router: 3 retries (+350000 ns backoff)"), "{stats}");
    assert_eq!(state(cluster, victim), ShardState::Degraded);
}

/// Healing a power cut rebuilds the shard from its flash image and keeps
/// its session: the fleet's observability, the table's PE job streams
/// and the block cache's budget. The cache comes back empty (DRAM does
/// not survive the cut).
#[test]
fn a_healed_power_cut_keeps_the_shards_session() {
    let table = Table::Papers { pes: 2, c1: Some(2) };
    let mut fleet =
        NkvCluster::new(ClusterConfig { devices: 2, ..ClusterConfig::default() }).unwrap();
    fleet.enable_observability(1 << 16);
    fleet.create_table("papers", table.config()).unwrap();
    fleet.bulk_load("papers", (1..=200).map(record_for).collect()).unwrap();
    fleet.persist().unwrap();
    fleet.set_parallel_pes("papers", 2).unwrap();
    fleet.shard_db(0).unwrap().enable_cache(1 << 20);
    trip(&mut fleet, 0, DeviceFaultKind::PowerCut);
    for key in 1..=10 {
        fleet.get("papers", key, Backend::Hardware).unwrap();
    }
    fleet.heal_shard(0).unwrap();

    let db = fleet.shard_db(0).unwrap();
    assert_eq!(db.cache_stats(), Some(cosmos_sim::CacheStats::default()), "empty, same budget");
    let scan = LogicalOp::Scan { rules: all_rules() };
    let plan = db.explain("papers", &scan, Backend::Hardware).unwrap();
    assert!(plan.contains("dispatch: 2 parallel PE job stream(s)"), "{plan}");
    for key in 1..=40 {
        fleet.get("papers", key, Backend::Hardware).unwrap();
    }
    let stats = fleet.cluster_stats();
    let [healed, other] = [0, 1].map(|s| stats.shards[s].stats.metrics.total_ops());
    assert!(healed > 0 && other > 0, "both shards record their GETs: {healed} vs {other}");
    let cache = fleet.shard_db(0).unwrap().cache_stats();
    assert!(cache.is_some_and(|c| c.lookups > 0), "the cache serves again: {cache:?}");
}
