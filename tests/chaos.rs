//! Chaos slice of the differential harness (`tests/common`): seeded fault
//! campaigns against a model-checked store, and a power cut after every
//! flash program.
//!
//! Every campaign drives random PUT/DELETE/GET/SCAN/repair traffic
//! through a database under the chaos weather — transient read failures,
//! correctable-ECC degradation, DRAM stall bursts and PE hangs all firing
//! at once — and checks three properties:
//!
//! 1. **no panics**: every operation returns `Ok` or a typed
//!    [`NkvError`] the weather allows; nothing unwinds;
//! 2. **correctness under degradation**: every read, and once the
//!    campaign ends every key, matches the model of the acknowledged
//!    operations — retries, HW→SW fallback and read-repair must never
//!    change *what* is read, only *when*;
//! 3. **observability**: the injected faults show up in the
//!    [`HealthReport`](nkv::HealthReport) counters.
//!
//! Campaigns are seeded, so any failure replays from the printed op list.

mod common;

use common::{lt, paper, papers, record_for, run, Cfg, Mix, Op, Table, Tier, Weather};
use cosmos_sim::faults::{FaultPlan, FlashFaultKind, ScheduledFault};
use cosmos_sim::PhysAddr;
use ndp_workload::spec::paper_lanes::YEAR;
use nkv::{Backend, NkvError};

/// Aggressive compaction trigger, so a few hundred operations exercise
/// flush + compaction under faults.
const TABLE: Table = Table::Papers { pes: 1, c1: Some(2) };

/// The campaigns' mix: 55/15/20/7/3 PUT/DELETE/GET/SCAN/repair over keys
/// 1..250.
const CHAOS: Mix = Mix { weights: [55, 15, 20, 7, 3], keys: 249 };

fn chaos(seed: u64) -> Cfg {
    Cfg { table: TABLE, weather: Weather::Chaos, seed, ..Cfg::default() }
}

/// One seeded campaign; returns the device-wide health counters so the
/// caller can assert the campaign actually injected faults.
fn campaign(seed: u64) -> nkv::HealthReport {
    // Each read flips a seeded coin between the ARM and the PEs.
    let cfg = Cfg { tier: Tier::Coin, ..chaos(seed) };
    let (mut store, mut model) = cfg.build(vec![], &[]);
    run(&cfg, &mut store, &mut model, &common::ops(seed, CHAOS, 400));
    let db = store.db();
    // Observability: the operator-facing `DeviceStats` snapshot carries
    // the health counters the campaign accumulated, and the ops that
    // provoked them are accounted in the metrics registry.
    let stats = db.device_stats();
    let health = stats.health;
    assert!(stats.metrics.total_ops() > 0, "seed {seed}: no ops recorded");
    // End of campaign: with injection off (no persistent damage was
    // planned) the store must agree with the model on every key.
    db.platform_mut().clear_faults();
    db.reset_pes("papers").unwrap();
    let clean = Cfg { weather: Weather::Clean, ..cfg };
    let gets: Vec<Op> = (1..250).map(Op::Get).collect();
    run(&clean.on(Backend::Software), &mut store, &mut model, &gets);
    run(&clean.on(Backend::Hardware), &mut store, &mut model, &[Op::Scan(vec![lt(YEAR, 3000)])]);
    health
}

#[test]
fn thirty_two_seeded_fault_campaigns_preserve_the_model() {
    let mut total = nkv::HealthReport::default();
    for seed in 0..32u64 {
        let h = campaign(0xBAD5_EED0 + seed);
        total.flash.transient_failures += h.flash.transient_failures;
        total.flash.correctable_hits += h.flash.correctable_hits;
        total.dram.stalls += h.dram.stalls;
        total.pe_hangs_injected += h.pe_hangs_injected;
        total.read_retries += h.read_retries;
        total.watchdog_trips += h.watchdog_trips;
        total.sw_fallback_blocks += h.sw_fallback_blocks;
        total.pages_repaired += h.pages_repaired;
    }
    // The campaigns must actually have exercised every fault class and
    // every resilience reaction (rates are high enough that a silent
    // no-op injector cannot pass).
    assert!(total.flash.transient_failures > 0, "no transient faults fired");
    assert!(total.flash.correctable_hits > 0, "no correctable-ECC events");
    assert!(total.dram.stalls > 0, "no DRAM stalls");
    assert!(total.pe_hangs_injected > 0, "no PE hangs");
    assert!(total.read_retries > 0, "resilience layer never retried");
    assert!(total.watchdog_trips > 0, "watchdog never tripped");
    assert!(total.sw_fallback_blocks > 0, "HW never degraded to SW");
}

/// Every fault class the weather injects is visible in the single
/// [`DeviceStats`](nkv::DeviceStats) snapshot an operator would pull:
/// its health block and its rendered text carry the exact counters —
/// injection can never be silent.
#[test]
fn every_injected_fault_is_visible_in_device_stats() {
    let cfg = Cfg { weather: Weather::ChaosStorm, ..chaos(0xD1A6) };
    let (mut store, mut model) = cfg.build(vec![], &[]);
    let mut ops: Vec<Op> =
        (0..120u32).map(|s| Op::Put(paper(u64::from(s % 60) + 1, Some(1900 + s)))).collect();
    // Push everything to flash so reads actually face the fault plan.
    ops.push(Op::Flush);
    run(&cfg, &mut store, &mut model, &ops);
    for _ in 0..10 {
        run(&cfg.on(Backend::Hardware), &mut store, &mut model, &[Op::Scan(vec![lt(YEAR, 3000)])]);
        store.db().reset_pes("papers").unwrap();
    }
    run(&cfg, &mut store, &mut model, &(1..40).map(Op::Get).collect::<Vec<_>>());
    let db = store.db();
    db.read_repair(2).unwrap();

    let stats = db.device_stats();
    let h = stats.health;
    assert!(h.flash.transient_failures > 0, "transient faults invisible");
    assert!(h.flash.correctable_hits > 0, "correctable-ECC hits invisible");
    assert!(h.dram.stalls > 0, "DRAM stalls invisible");
    assert!(h.pe_hangs_injected > 0, "PE hangs invisible");
    assert!(h.read_retries > 0, "retry reaction invisible");
    assert!(h.watchdog_trips > 0, "watchdog reaction invisible");
    assert!(h.sw_fallback_blocks > 0, "HW->SW degradation invisible");
    assert!(h.pages_repaired > 0, "read-repair invisible");

    let rendered = stats.to_string();
    for needle in [
        format!("injected {} transient flash", h.flash.transient_failures),
        format!("{} ecc-corrected", h.flash.correctable_hits),
        format!("{} dram stalls", h.dram.stalls),
        format!("{} pe hangs", h.pe_hangs_injected),
        format!("{} watchdog trips", h.watchdog_trips),
        format!("{} pages repaired", h.pages_repaired),
    ] {
        assert!(rendered.contains(&needle), "stats text missing `{needle}`:\n{rendered}");
    }
    // The ops that provoked the faults are accounted too.
    assert_eq!(stats.metrics.op(nkv::OpKind::Put).ops, 120);
    assert!(stats.metrics.op(nkv::OpKind::Get).ops > 0);
    assert!(stats.metrics.op(nkv::OpKind::ReadRepair).ops > 0);
}

#[test]
fn retry_backoff_costs_simulated_time() {
    // The storm allows no read error: the software scan must succeed.
    let cfg = Cfg { weather: Weather::TransientStorm, ..chaos(7) };
    let (mut store, mut model) = cfg.build(papers(2_000), &[]);
    run(&cfg, &mut store, &mut model, &[Op::Scan(vec![lt(YEAR, 3000)])]);
    let h = store.db().table_health("papers").unwrap();
    assert!(h.read_retries > 0);
    assert!(
        h.retry_backoff_ns >= h.read_retries * 50_000,
        "exponential backoff must charge at least the base per retry"
    );
    assert_eq!(h.reads_failed, 0, "0.2 transient rate must not exhaust 3 retries");
}

/// The fault policy's numbers, end to end: a read that fails on every
/// attempt is retried 3 times, backing off 50 + 100 + 200 µs of
/// simulated time, and fails typed on its 4th attempt.
#[test]
fn a_read_failing_every_attempt_exhausts_three_retries_after_350_us_of_backoff() {
    let (mut store, _) = Cfg { table: TABLE, ..Cfg::default() }.loaded(200);
    let db = store.db();
    let always = FaultPlan { seed: 5, transient_read_p: 1.0, ..FaultPlan::default() };
    db.platform_mut().install_faults(&always);
    let err = db.get("papers", 7, Backend::Software).unwrap_err();
    assert!(matches!(err, NkvError::RetriesExhausted { attempts: 4, .. }), "{err:?}");
    let h = db.table_health("papers").unwrap();
    assert_eq!((h.read_retries, h.retry_backoff_ns, h.reads_failed), (3, 350_000, 1));
}

/// A fresh PE hang costs exactly the 1 ms watchdog: the hung hardware
/// GET searches its block on the ARM, and ends 1 000 000 ns after the
/// same GET run on the ARM from the start.
#[test]
fn a_fresh_pe_hang_resumes_the_block_on_the_arm_one_watchdog_later() {
    let get = |weather, backend| {
        let (mut store, _) = Cfg { table: TABLE, weather, seed: 3, ..Cfg::default() }.loaded(200);
        let db = store.db();
        let (rec, report) = db.get("papers", 7, backend).unwrap();
        assert_eq!(rec, Some(record_for(7)));
        (report.sim_ns, db.table_health("papers").unwrap().watchdog_trips)
    };
    let (arm_ns, no_trips) = get(Weather::Clean, Backend::Software);
    let (hung_ns, trips) = get(Weather::HangStorm, Backend::Hardware);
    assert_eq!((no_trips, trips), (0, 1));
    assert_eq!(hung_ns - arm_ns, 1_000_000);
}

#[test]
fn pe_hang_mid_scan_degrades_to_software_with_identical_results() {
    // Every PE block job hangs, so the watchdog retires the PE on its
    // first block and the rest of the scan runs on the ARM core.
    let scan = [Op::Scan(vec![lt(YEAR, 1980)])];
    let [(reference, _), (degraded, mut store)] =
        [Weather::Clean, Weather::HangStorm].map(|weather| {
            let cfg = Cfg { weather, seed: 9, ..chaos(0) }.on(Backend::Hardware);
            let (mut store, mut model) = cfg.build(papers(3_000), &[]);
            (run(&cfg, &mut store, &mut model, &scan), store)
        });
    assert_eq!(degraded, reference, "degradation changed results");
    let db = store.db();
    let h = db.table_health("papers").unwrap();
    assert_eq!(h.watchdog_trips, 1, "one trip retires the only PE");
    assert!(h.sw_fallback_blocks > 0, "remaining blocks must run in software");
    let report = db.device_stats().health;
    assert_eq!(report.pes_failed, 1);
    assert!(report.pe_hangs_injected >= 1);

    // A PL reconfiguration brings the PE back.
    db.reset_pes("papers").unwrap();
    assert_eq!(db.device_stats().health.pes_failed, 0);
}

#[test]
fn read_repair_relocates_degrading_pages_and_survives_recovery() {
    let (mut store, mut model) =
        Cfg { table: TABLE, ..Cfg::default() }.build(papers(1_500), &[Op::Persist]);
    let db = store.db();
    // Every read is a correctable-ECC event: pages degrade fast.
    db.platform_mut().install_faults(&FaultPlan {
        seed: 13,
        correctable_p: 1.0,
        ..FaultPlan::default()
    });
    let rules = [lt(YEAR, 3000)];
    for _ in 0..3 {
        db.scan("papers", &rules, Backend::Software).unwrap();
    }
    let moved = db.read_repair(3).unwrap();
    assert!(moved > 0, "three full scans must push data pages past the threshold");
    assert_eq!(db.device_stats().health.pages_repaired, moved);
    // Repaired pages start fresh; a second pass finds nothing at the
    // same threshold.
    assert_eq!(db.read_repair(u32::MAX).unwrap(), 0);

    // Contents are unchanged and the rewired metadata survives a power
    // cycle (read-repair re-persisted the manifest).
    db.platform_mut().clear_faults();
    let cfg = Cfg { table: TABLE, ..Cfg::default() }.on(Backend::Hardware);
    run(
        &cfg,
        &mut store,
        &mut model,
        &[Op::Scan(rules.to_vec()), Op::PowerCycle, Op::Scan(rules.to_vec())],
    );
}

#[test]
fn a_failed_compaction_leaves_the_tree_as_it_was() {
    // Three flushed SSTs of 20 records over a C1 limit of 2: the next
    // PUT triggers a compaction, whose first input page has meanwhile
    // become a grown bad page. The compaction must fail typed and leave
    // its inputs installed — the readable 40 records stay readable, the
    // 20 behind the bad page answer with the flash error, and nothing
    // acknowledged turns into `None`.
    let writes: Vec<Op> = (1..=60u64)
        .flat_map(|key| [Some(Op::Put(record_for(key))), (key % 20 == 0).then_some(Op::Flush)])
        .flatten()
        .collect();
    let (mut store, _) = Cfg { table: TABLE, ..Cfg::default() }.build(vec![], &writes);
    let db = store.db();
    let levels = db.level_sizes("papers").unwrap();
    assert_eq!(levels[..2], [3, 0], "three C1 SSTs, compaction due");
    db.platform_mut().install_faults(&FaultPlan {
        seed: 19,
        schedule: vec![ScheduledFault {
            addr: PhysAddr { channel: 0, lun: 0, page: 0 },
            kind: FlashFaultKind::Persistent,
        }],
        ..FaultPlan::default()
    });

    let err = db.put("papers", record_for(61)).unwrap_err();
    assert!(
        matches!(err, NkvError::Flash(cosmos_sim::FlashError::Uncorrectable(_))),
        "the triggering PUT reports the bad input page: {err:?}"
    );
    assert_eq!(db.level_sizes("papers").unwrap(), levels, "no level was touched");
    for backend in [Backend::Software, Backend::Hardware] {
        for key in 21..=61u64 {
            let (got, _) = db.get("papers", key, backend).unwrap();
            assert_eq!(got, Some(record_for(key)), "key {key} on {backend:?}");
        }
        for key in 1..=20u64 {
            match db.get("papers", key, backend) {
                Err(NkvError::Flash(_)) => {}
                other => panic!("key {key} on {backend:?} sits behind the bad page: {other:?}"),
            }
        }
    }
}

/// 200 batches of 40 overwriting PUTs over keys 1..=300, each flushed and
/// persisted; then a power cycle and a GET of every key.
fn persisted_batches() -> Vec<Op> {
    let batch = |b: u64| {
        let put = move |i| Op::Put(paper(1 + (b * 7 + i) % 300, Some(1900 + b as u32 % 120)));
        (0..40).map(put).chain([Op::Flush, Op::Persist])
    };
    let reboot = std::iter::once(Op::PowerCycle).chain((1..=300).map(Op::Get));
    (0..200).flat_map(batch).chain(reboot).collect()
}

/// Cut power during every `stride`-th flash program of a clean run of
/// [`persisted_batches`]. The recovered device must hold the last
/// *acknowledged* persist's state or the one power was cut under (a
/// persist interrupted by the cut may still have become durable —
/// standard crash semantics): never a torn half-state, never an older
/// one, and an acknowledged state is never lost. [`run`] also holds
/// every cut to exactly one torn program.
fn cut_power_after_every(stride: usize) {
    let history = persisted_batches();
    let clean = Cfg { table: TABLE, ..Cfg::default() };
    let (mut store, mut model) = clean.build(vec![], &[]);
    run(&clean, &mut store, &mut model, &history);
    let (_, programs) = store.db().platform_mut().flash.op_counts();
    for cut in (0..programs).step_by(stride) {
        let cfg = Cfg { weather: Weather::PowerCut(cut), ..clean };
        let (mut store, mut model) = cfg.build(vec![], &[]);
        run(&cfg, &mut store, &mut model, &history);
        assert_eq!(model.cuts(), 1, "cut {cut} of {programs}: the cut must strike mid-run");
    }
}

#[test]
fn power_cut_recovery_yields_a_consistent_prefix_of_acknowledged_flushes() {
    cut_power_after_every(32);
}

#[test]
#[ignore = "every crash point of the history; CHECK_SLOW=1 scripts/check.sh runs it"]
fn power_cut_after_every_flash_program_recovers_a_consistent_prefix() {
    cut_power_after_every(1);
}
