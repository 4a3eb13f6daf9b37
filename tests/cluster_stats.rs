//! Fleet-observability suite: cross-shard metrics math and the merged
//! multi-device trace.
//!
//! The cluster's instrument panel ([`nkv::ClusterStats`] +
//! [`NkvCluster::take_cluster_trace`]) is only trustworthy if the fold
//! is *exact*:
//!
//! 1. **histogram concatenation**: merged fleet quantiles must equal
//!    the quantiles of one histogram holding every shard's samples —
//!    seeded property sweep over arbitrary shard splits;
//! 2. **busy-time conservation**: the merged breakdown must equal the
//!    sum of per-shard breakdowns at every snapshot, including across
//!    fault weather with quarantine probes (probes are admission-gate
//!    checks, not data ops — they must not double-count busy time);
//! 3. **merged trace**: one Chrome export with each device's spans in
//!    its own pid namespace plus the router's synthetic fan-out /
//!    wait / merge spans, drained exactly once.

use cosmos_sim::{
    chrome_trace_json_cluster, DeviceFaultKind, DeviceFaultPlan, DEVICE_PID_STRIDE, ROUTER_PID,
};
use ndp_ir::elaborate;
use ndp_pe::oracle::FilterRule;
use ndp_workload::spec::{paper_lanes, PAPER_PE, PAPER_REF_SPEC};
use ndp_workload::{Paper, PaperGen, PubGraphConfig, SplitMix64};
use nkv::{
    Backend, ClusterConfig, LatencyHistogram, LogicalOp, NkvCluster, ShardState, TableConfig,
};

fn encode(p: &Paper) -> Vec<u8> {
    let mut v = Vec::with_capacity(80);
    p.encode_into(&mut v);
    v
}

fn table_cfg(n_pes: usize) -> TableConfig {
    let m = ndp_spec::parse(PAPER_REF_SPEC).unwrap();
    let mut cfg = TableConfig::new(elaborate(&m, PAPER_PE).unwrap());
    cfg.n_pes = n_pes;
    cfg
}

fn record_for(key: u64) -> Vec<u8> {
    let gen_cfg = PubGraphConfig { papers: 200, refs: 0, seed: 1 };
    let mut p = PaperGen::paper_at(&gen_cfg, key % 200);
    p.id = key;
    encode(&p)
}

/// A match-everything SCAN (year < 3000).
fn scan_all() -> LogicalOp {
    LogicalOp::Scan { rules: vec![FilterRule { lane: paper_lanes::YEAR, op_code: 5, value: 3000 }] }
}

/// A loaded cluster with observability on.
fn observed_cluster(devices: usize, n_keys: u64) -> NkvCluster {
    let mut cluster =
        NkvCluster::new(ClusterConfig { devices, ..ClusterConfig::default() }).unwrap();
    cluster.enable_observability(1 << 20);
    cluster.create_table("papers", table_cfg(2)).unwrap();
    cluster.bulk_load("papers", (1..=n_keys).map(record_for).collect()).unwrap();
    cluster
}

/// Property sweep: split arbitrary sample sets across N per-shard
/// histograms, fold them the way `cluster_stats` does, and the result
/// must be indistinguishable — buckets, counts and every quantile —
/// from one histogram that recorded the concatenation directly.
#[test]
fn prop_merged_quantiles_equal_concatenated_samples() {
    let qs = [0.0, 0.1, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0];
    let mut rng = SplitMix64::new(0x0b5e_7a11);
    for case in 0..200 {
        let shards = 1 + rng.gen_u64(8) as usize;
        let samples = rng.gen_u64(256) as usize;
        let mut per_shard = vec![LatencyHistogram::new(); shards];
        let mut concat = LatencyHistogram::new();
        for _ in 0..samples {
            // Mixed magnitudes, bucket boundaries included.
            let ns = match rng.gen_u64(3) {
                0 => rng.gen_u64(64),
                1 => 1u64 << rng.gen_u64(40),
                _ => rng.next_u64() >> rng.gen_u64(50),
            };
            per_shard[rng.gen_u64(shards as u64) as usize].record(ns);
            concat.record(ns);
        }
        let mut merged = LatencyHistogram::new();
        for h in &per_shard {
            merged.merge(h);
        }
        assert_eq!(merged.buckets(), concat.buckets(), "case {case}: bucket-exact");
        assert_eq!(merged.count(), concat.count(), "case {case}");
        assert_eq!(merged.max(), concat.max(), "case {case}");
        for &q in &qs {
            assert_eq!(merged.quantile(q), concat.quantile(q), "case {case} q={q}");
        }
    }
}

/// The live-cluster version of the same fold: fleet quantiles from
/// `cluster_stats` equal the quantiles of the per-shard histograms
/// merged by hand, and the merged op/byte counters are exact sums.
#[test]
fn cluster_stats_merged_registry_is_the_exact_shard_fold() {
    let mut cluster = observed_cluster(3, 300);
    for key in 1..=60u64 {
        cluster.get("papers", key, Backend::Hardware).unwrap();
    }
    cluster.execute("papers", &scan_all(), Backend::Hardware).unwrap();

    let stats = cluster.cluster_stats();
    assert_eq!(stats.shards.len(), 3);

    let mut hand = LatencyHistogram::new();
    let mut ops = 0u64;
    for row in &stats.shards {
        hand.merge(&row.stats.metrics.op(nkv::OpKind::Get).hist);
        ops += row.stats.metrics.total_ops();
    }
    let merged_get = &stats.merged.op(nkv::OpKind::Get).hist;
    assert_eq!(merged_get.count(), 60, "every GET must land in exactly one shard");
    for &q in &[0.5, 0.95, 0.99, 1.0] {
        assert_eq!(merged_get.quantile(q), hand.quantile(q), "q={q}");
    }
    assert_eq!(stats.total_ops(), ops, "merged op count == sum of shard op counts");
    // Every shard scanned, so the fleet saw 3 SCAN completions.
    assert_eq!(stats.merged.op(nkv::OpKind::Scan).ops, 3);
    // A snapshot is a snapshot: taking it again changes nothing.
    assert_eq!(cluster.cluster_stats(), stats);
}

/// Busy-time conservation across snapshots and fault weather: at every
/// snapshot the merged breakdown equals the per-shard sum, per-shard
/// busy time is monotone, and quarantine probes (admission checks, not
/// data ops) add zero busy time to a rejected shard.
#[test]
fn busy_time_is_conserved_across_drains_and_quarantine_probes() {
    let mut cluster = observed_cluster(4, 400);
    let victim = 1usize;

    let check_conservation = |stats: &nkv::ClusterStats| {
        let sum: u64 = stats.shards.iter().map(|r| r.stats.metrics.total_breakdown().total()).sum();
        assert_eq!(stats.merged.total_breakdown().total(), sum, "merged == per-shard sum");
    };

    cluster.execute("papers", &scan_all(), Backend::Hardware).unwrap();
    let before = cluster.cluster_stats();
    check_conservation(&before);
    assert!(before.merged.total_breakdown().total() > 0, "traced scan must attribute busy time");

    // Hang one device and drive traffic until it is quarantined; the
    // probes that follow ride on foreground ops.
    let hang = DeviceFaultPlan { kind: DeviceFaultKind::Hang, after_ops: 0 };
    cluster.shard_db(victim).unwrap().platform_mut().install_device_fault(hang);
    for _ in 0..30 {
        let _ = cluster.execute("papers", &scan_all(), Backend::Hardware);
    }
    assert!(
        cluster.cluster_stats().shards[victim].state.severity()
            >= ShardState::Quarantined.severity(),
        "sustained hang must at least quarantine the victim"
    );
    let after = cluster.cluster_stats();
    check_conservation(&after);
    for (b, a) in before.shards.iter().zip(after.shards.iter()) {
        assert!(
            a.stats.metrics.total_breakdown().total() >= b.stats.metrics.total_breakdown().total(),
            "shard {} busy time must be monotone across snapshots",
            b.shard
        );
    }
    // The hung shard served nothing after the fault: probes alone must
    // not have inflated its busy time.
    assert_eq!(
        after.shards[victim].stats.metrics.total_breakdown().total(),
        before.shards[victim].stats.metrics.total_breakdown().total(),
        "quarantine probes must not double-count busy time"
    );
    assert!(after.busy_skew >= 1.0, "3 busy shards vs 1 frozen one must show skew");
}

/// The merged Chrome export: per-device pid namespaces, router spans on
/// their own process, metadata totals, drain-once semantics.
#[test]
fn merged_trace_namespaces_devices_and_renders_router_spans() {
    let mut cluster = observed_cluster(3, 300);
    cluster.get("papers", 7, Backend::Hardware).unwrap();
    cluster.execute("papers", &scan_all(), Backend::Hardware).unwrap();

    let (devices, router) = cluster.take_cluster_trace();
    assert_eq!(devices.len(), 3);
    assert!(devices.iter().all(|d| !d.events.is_empty()), "every shard scanned");
    assert!(
        router.iter().any(|s| matches!(s.kind, cosmos_sim::RouterSpanKind::FanOut { shards: 3 })),
        "the scan must record a 3-way fan-out"
    );
    let json = chrome_trace_json_cluster(&devices, &router);
    // Device 1 and 2's flash channel 0 pids land in their own namespaces.
    assert!(json.contains(&format!("\"pid\":{}", DEVICE_PID_STRIDE + 100)), "{json}");
    assert!(json.contains(&format!("\"pid\":{}", 2 * DEVICE_PID_STRIDE + 100)), "{json}");
    assert!(json.contains(&format!("\"pid\":{ROUTER_PID}")), "{json}");
    assert!(json.contains("router_fanout"), "{json}");
    assert!(json.contains("router_shard_wait"), "{json}");
    assert!(json.contains("router_merge"), "{json}");

    // Drained exactly once.
    let (again, router_again) = cluster.take_cluster_trace();
    assert!(again.iter().all(|d| d.events.is_empty()));
    assert!(router_again.is_empty());
}

/// The stable `Display` rendering of a fleet snapshot.
#[test]
fn cluster_stats_display_is_stable_and_complete() {
    let mut cluster = observed_cluster(2, 200);
    for key in 1..=10u64 {
        cluster.get("papers", key, Backend::Software).unwrap();
    }
    let stats = cluster.cluster_stats();
    let text = format!("{stats}");
    assert!(text.starts_with("cluster stats: 2 shards, "), "{text}");
    assert!(text.contains("shard 0 [healthy]:"), "{text}");
    assert!(text.contains("shard 1 [healthy]:"), "{text}");
    assert!(text.contains("merged GET"), "{text}");
    assert!(text.contains("router: 0 retries"), "{text}");
    assert_eq!(text, format!("{}", cluster.cluster_stats()), "byte-stable");

    // An idle cluster has no meaningful skew.
    let idle = NkvCluster::new(ClusterConfig::default()).unwrap().cluster_stats();
    assert_eq!(idle.busy_skew, 0.0);
    assert_eq!(idle.total_ops(), 0);
}
