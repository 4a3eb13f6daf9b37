//! Op-level device metrics.
//!
//! The third observability layer (next to the PE's hardware performance
//! counters and the platform's DES trace): a lock-cheap registry of
//! per-operation latency histograms, throughput counters and time
//! breakdowns that the firmware would keep in DRAM and expose through an
//! admin command.
//!
//! * [`LatencyHistogram`] — 64 power-of-two buckets over simulated
//!   nanoseconds (bucket `i` holds durations with bit-length `i`), so
//!   recording is one shift-free `leading_zeros` and quantiles come from
//!   bucket upper bounds — the classic log-bucket scheme, exact enough
//!   for p50/p95/p99 reporting and constant-size forever;
//! * [`Breakdown`] — where an operation's simulated time went
//!   (flash vs DRAM vs PE vs config registers vs NVMe), attributed from
//!   the platform's drained trace spans;
//! * [`MetricsRegistry`] — one [`OpMetrics`] per [`OpKind`];
//! * [`DeviceStats`] — the device-wide snapshot: every op's metrics plus
//!   the [`HealthReport`], with a stable `Display` rendering.
//!
//! Like fault injection and tracing, metrics follow the
//! zero-cost-when-disabled idiom: `NkvDb` holds an
//! `Option<MetricsRegistry>` and every record site is one branch.

use crate::db::HealthReport;
use cosmos_sim::{SimNs, TraceEvent, TraceKind};
use std::fmt;

/// Number of log buckets (covers the full `u64` nanosecond range).
pub(crate) const HIST_BUCKETS: usize = 64;

/// Log-bucket latency histogram over simulated nanoseconds.
///
/// Bucket `0` holds zero-duration samples; bucket `i >= 1` holds
/// durations `d` with `2^(i-1) <= d < 2^i`. Quantiles are answered with
/// each bucket's upper bound (clamped to the observed maximum), so the
/// relative error is bounded by 2x — plenty for latency reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    max: SimNs,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self { buckets: [0; HIST_BUCKETS], count: 0, sum: 0, max: 0 }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_of(ns: SimNs) -> usize {
        if ns == 0 {
            0
        } else {
            (64 - ns.leading_zeros() as usize).min(HIST_BUCKETS - 1)
        }
    }

    /// Record one duration.
    pub fn record(&mut self, ns: SimNs) {
        self.buckets[Self::bucket_of(ns)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(ns);
        self.max = self.max.max(ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded durations (saturating).
    pub fn sum(&self) -> SimNs {
        self.sum
    }

    /// Largest recorded duration.
    pub fn max(&self) -> SimNs {
        self.max
    }

    /// Mean duration (0 when empty).
    #[cfg(test)]
    pub(crate) fn mean(&self) -> SimNs {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// The quantile `q` in `[0, 1]`: the upper bound of the bucket
    /// holding the `ceil(q * count)`-th smallest sample, clamped to the
    /// observed maximum. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> SimNs {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= target {
                // Bucket 63 is the overflow bucket (durations with bit
                // length >= 63), so its only safe upper bound is `max`.
                let upper = match i {
                    0 => 0,
                    63 => u64::MAX,
                    _ => (1u64 << i) - 1,
                };
                return upper.min(self.max);
            }
        }
        self.max
    }

    /// Raw bucket counts (index = bit length of the duration).
    pub fn buckets(&self) -> &[u64; HIST_BUCKETS] {
        &self.buckets
    }

    /// Fold `other` into `self` bucket-wise. Because the buckets are
    /// fixed log2 bins, merging per-PE-job histograms into the op-level
    /// one is exact — every sample lands in the same bin it was
    /// recorded in, and nothing is double counted.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Like `percentile_summary` but with the deep
    /// tail (p99.9) included — the loadgen report's format.
    pub fn tail_summary(&self) -> String {
        if self.count == 0 {
            return "n=0".to_string();
        }
        format!(
            "n={} p50={} p95={} p99={} p99.9={} max={}",
            self.count,
            fmt_ns(self.quantile(0.50)),
            fmt_ns(self.quantile(0.95)),
            fmt_ns(self.quantile(0.99)),
            fmt_ns(self.quantile(0.999)),
            fmt_ns(self.max),
        )
    }

    /// One-line percentile summary for reports. An empty histogram
    /// renders as the stable `"n=0"` — never fabricated zero quantiles.
    pub(crate) fn percentile_summary(&self) -> String {
        if self.count == 0 {
            return "n=0".to_string();
        }
        format!(
            "n={} p50={} p95={} p99={} max={}",
            self.count,
            fmt_ns(self.quantile(0.50)),
            fmt_ns(self.quantile(0.95)),
            fmt_ns(self.quantile(0.99)),
            fmt_ns(self.max),
        )
    }
}

/// The operation classes the device accounts separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    Get,
    Scan,
    Put,
    Flush,
    Compaction,
    ReadRepair,
}

impl OpKind {
    /// Every kind, in the stable reporting order.
    pub(crate) const ALL: [OpKind; 6] = [
        OpKind::Get,
        OpKind::Scan,
        OpKind::Put,
        OpKind::Flush,
        OpKind::Compaction,
        OpKind::ReadRepair,
    ];

    /// Stable display name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            OpKind::Get => "GET",
            OpKind::Scan => "SCAN",
            OpKind::Put => "PUT",
            OpKind::Flush => "FLUSH",
            OpKind::Compaction => "COMPACTION",
            OpKind::ReadRepair => "READ_REPAIR",
        }
    }

    fn index(self) -> usize {
        match self {
            OpKind::Get => 0,
            OpKind::Scan => 1,
            OpKind::Put => 2,
            OpKind::Flush => 3,
            OpKind::Compaction => 4,
            OpKind::ReadRepair => 5,
        }
    }
}

/// Where an operation's simulated time went, summed over the trace
/// spans attributed to it. Spans overlap (the device is parallel), so
/// the component sum can legitimately exceed the op's wall latency.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Breakdown {
    /// NAND reads + programs (tR/tPROG + bus + controller DMA).
    pub flash_ns: SimNs,
    /// Shared PS-DRAM port transfers.
    pub dram_ns: SimNs,
    /// PE block jobs (START -> DONE).
    pub pe_ns: SimNs,
    /// PE control-register accesses (PS<->PL round trips).
    pub cfg_ns: SimNs,
    /// NVMe host transfers.
    pub nvme_ns: SimNs,
}

impl Breakdown {
    /// Fold one trace span into the matching component.
    pub(crate) fn add_span(&mut self, ev: &TraceEvent) {
        match ev.kind {
            TraceKind::FlashRead { .. } | TraceKind::FlashProgram { .. } => {
                self.flash_ns += ev.dur;
            }
            TraceKind::DramTransfer { .. } => self.dram_ns += ev.dur,
            TraceKind::PeJob { .. } => self.pe_ns += ev.dur,
            TraceKind::RegAccess { .. } => self.cfg_ns += ev.dur,
            // Queue envelope spans are doorbell MMIO + SQE/CQE traffic on
            // the host link: fold them into the NVMe component so the
            // breakdown layout (and its Display) stays unchanged.
            TraceKind::NvmeTransfer { .. }
            | TraceKind::QueueSubmit { .. }
            | TraceKind::QueueComplete { .. } => self.nvme_ns += ev.dur,
            // A cache hit's DRAM burst is already attributed through
            // its DramTransfer span; the marker span carries no
            // additional busy time.
            TraceKind::CacheHit { .. } => {}
        }
    }

    /// Total attributed busy time across all components.
    pub fn total(&self) -> SimNs {
        self.flash_ns + self.dram_ns + self.pe_ns + self.cfg_ns + self.nvme_ns
    }

    /// Fold `other`'s component times into `self` (cross-shard
    /// aggregation). Component-wise addition, so merging per-shard
    /// breakdowns conserves the fleet's total busy time exactly.
    pub(crate) fn merge(&mut self, other: &Breakdown) {
        self.flash_ns += other.flash_ns;
        self.dram_ns += other.dram_ns;
        self.pe_ns += other.pe_ns;
        self.cfg_ns += other.cfg_ns;
        self.nvme_ns += other.nvme_ns;
    }
}

/// Metrics of one operation class.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpMetrics {
    /// Operations completed.
    pub ops: u64,
    /// Result/payload bytes moved by those operations.
    pub(crate) bytes: u64,
    /// Latency distribution.
    pub hist: LatencyHistogram,
    /// Component time attribution (zeroed while tracing is off).
    pub breakdown: Breakdown,
}

/// The device's metrics registry: one [`OpMetrics`] per [`OpKind`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    per_op: [OpMetrics; 6],
}

impl MetricsRegistry {
    /// An empty registry.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Record one completed operation.
    pub(crate) fn record(&mut self, kind: OpKind, latency_ns: SimNs, bytes: u64) {
        let m = &mut self.per_op[kind.index()];
        m.ops += 1;
        m.bytes += bytes;
        m.hist.record(latency_ns);
    }

    /// Attribute a batch of trace spans to `kind`'s breakdown.
    pub(crate) fn attribute(&mut self, kind: OpKind, spans: &[TraceEvent]) {
        let b = &mut self.per_op[kind.index()].breakdown;
        for ev in spans {
            b.add_span(ev);
        }
    }

    /// Metrics of one operation class.
    pub fn op(&self, kind: OpKind) -> &OpMetrics {
        &self.per_op[kind.index()]
    }

    /// Total operations recorded across all classes.
    pub fn total_ops(&self) -> u64 {
        self.per_op.iter().map(|m| m.ops).sum()
    }

    /// Fold `other` into `self`, op class by op class: histograms merge
    /// bucket-exactly ([`LatencyHistogram::merge`]), counters and
    /// breakdowns add. This is the cross-shard fold — merging N shard
    /// registries equals recording every shard's samples into one.
    pub(crate) fn merge(&mut self, other: &MetricsRegistry) {
        for (a, b) in self.per_op.iter_mut().zip(other.per_op.iter()) {
            a.ops += b.ops;
            a.bytes += b.bytes;
            a.hist.merge(&b.hist);
            a.breakdown.merge(&b.breakdown);
        }
    }

    /// Busy time summed over every op class's breakdown — the per-shard
    /// number the cluster's skew metric compares.
    pub fn total_breakdown(&self) -> Breakdown {
        let mut total = Breakdown::default();
        for m in &self.per_op {
            total.merge(&m.breakdown);
        }
        total
    }
}

/// Device-wide observability snapshot: per-op metrics plus health.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Per-op metrics, indexed like `OpKind::ALL`.
    pub metrics: MetricsRegistry,
    /// Fault/resilience counters.
    pub health: HealthReport,
    /// DRAM block-cache counters (`None` while the cache is disabled,
    /// keeping the rendering byte-identical to the pre-cache device).
    pub(crate) cache: Option<cosmos_sim::CacheStats>,
    /// Trace spans silently evicted by ring overflow since the last
    /// drain. Nonzero means the flame graph (and the breakdown columns
    /// attributed from drained spans) undercounts — grow the ring
    /// capacity. Rendered only when nonzero so healthy output is
    /// byte-identical to the pre-counter device.
    pub dropped_spans: u64,
}

/// Render a nanosecond duration with a readable unit. Stable across
/// runs for identical inputs (used by snapshot-style output checks).
pub(crate) fn fmt_ns(ns: SimNs) -> String {
    if ns < 10_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.1} us", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.3} s", ns as f64 / 1e9)
    }
}

fn pct(part: SimNs, total: SimNs) -> f64 {
    if total == 0 {
        0.0
    } else {
        part as f64 * 100.0 / total as f64
    }
}

impl fmt::Display for DeviceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "device stats ({} ops)", self.metrics.total_ops())?;
        for kind in OpKind::ALL {
            let m = self.metrics.op(kind);
            if m.ops == 0 {
                continue;
            }
            writeln!(
                f,
                "  {:<11} ops={} bytes={} p50={} p95={} p99={} max={}",
                kind.name(),
                m.ops,
                m.bytes,
                fmt_ns(m.hist.quantile(0.50)),
                fmt_ns(m.hist.quantile(0.95)),
                fmt_ns(m.hist.quantile(0.99)),
                fmt_ns(m.hist.max()),
            )?;
            let b = m.breakdown;
            if b.total() > 0 {
                writeln!(
                    f,
                    "              flash={} ({:.1}%) dram={} ({:.1}%) pe={} ({:.1}%) \
                     cfg={} ({:.1}%) nvme={} ({:.1}%)",
                    fmt_ns(b.flash_ns),
                    pct(b.flash_ns, b.total()),
                    fmt_ns(b.dram_ns),
                    pct(b.dram_ns, b.total()),
                    fmt_ns(b.pe_ns),
                    pct(b.pe_ns, b.total()),
                    fmt_ns(b.cfg_ns),
                    pct(b.cfg_ns, b.total()),
                    fmt_ns(b.nvme_ns),
                    pct(b.nvme_ns, b.total()),
                )?;
            }
        }
        if let Some(c) = &self.cache {
            writeln!(
                f,
                "  cache: lookups={} hits={} ({:.1}%) misses={} insertions={} \
                 evictions={} invalidations={}",
                c.lookups,
                c.hits,
                c.hit_rate() * 100.0,
                c.misses,
                c.insertions,
                c.evictions,
                c.invalidations,
            )?;
        }
        if self.dropped_spans > 0 {
            writeln!(f, "  trace: dropped_spans={} (ring overflowed)", self.dropped_spans)?;
        }
        write!(f, "{}", self.health)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_quantiles_and_mean() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.5), 0);
        for ns in [0u64, 1, 2, 3, 100, 1000, 1_000_000] {
            h.record(ns);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 1_001_106);
        assert_eq!(h.max(), 1_000_000);
        assert_eq!(h.mean(), 1_001_106 / 7);
        // Bucket layout: 0 -> b0; 1 -> b1; 2,3 -> b2; 100 -> b7;
        // 1000 -> b10; 1_000_000 -> b20.
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[1], 1);
        assert_eq!(h.buckets()[2], 2);
        assert_eq!(h.buckets()[7], 1);
        assert_eq!(h.buckets()[10], 1);
        assert_eq!(h.buckets()[20], 1);
        // p50 = 4th smallest (3) -> bucket 2's upper bound.
        assert_eq!(h.quantile(0.50), 3);
        // p99 = 7th smallest -> top bucket, clamped to the observed max.
        assert_eq!(h.quantile(0.99), 1_000_000);
        // q = 1.0 is the max exactly.
        assert_eq!(h.quantile(1.0), 1_000_000);
    }

    #[test]
    fn quantile_upper_bound_is_within_2x_of_sample() {
        let mut h = LatencyHistogram::new();
        h.record(1500);
        // 1500 has bit length 11 -> upper bound 2047, clamped to max.
        assert_eq!(h.quantile(0.5), 1500);
        h.record(1501);
        let q = h.quantile(0.5);
        assert!((1500..=2 * 1500).contains(&q), "got {q}");
    }

    #[test]
    fn merge_equals_recording_into_one_histogram() {
        let samples_a = [0u64, 5, 130, 9_000, 1_000_000];
        let samples_b = [3u64, 130, 77_000];
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut all = LatencyHistogram::new();
        for &s in &samples_a {
            a.record(s);
            all.record(s);
        }
        for &s in &samples_b {
            b.record(s);
            all.record(s);
        }
        a.merge(&b);
        assert_eq!(a.buckets(), all.buckets(), "bucket-exact, no double counting");
        assert_eq!(a.count(), all.count());
        assert_eq!(a.sum(), all.sum());
        assert_eq!(a.max(), all.max());
        assert_eq!(a.percentile_summary(), all.percentile_summary());
        // Merging an empty histogram changes nothing.
        a.merge(&LatencyHistogram::new());
        assert_eq!(a.buckets(), all.buckets());
    }

    #[test]
    fn tail_summary_includes_p999() {
        let mut h = LatencyHistogram::new();
        for i in 0..1000u64 {
            h.record(i);
        }
        let s = h.tail_summary();
        assert!(s.contains("p99.9="), "{s}");
        assert!(s.starts_with("n=1000 p50="), "{s}");
        assert_eq!(LatencyHistogram::new().tail_summary(), "n=0");
    }

    #[test]
    fn empty_histogram_summary_is_stable_n0() {
        let h = LatencyHistogram::new();
        assert_eq!(h.percentile_summary(), "n=0");
        assert_eq!(h.percentile_summary(), "n=0", "byte-stable across calls");
    }

    #[test]
    fn populated_histogram_summary_lists_percentiles() {
        let mut h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record(500_000);
        }
        h.record(4_000_000);
        let s = h.percentile_summary();
        assert!(s.starts_with("n=100 p50="), "{s}");
        assert!(s.contains("p95="), "{s}");
        assert!(s.ends_with("max=4.00 ms"), "{s}");
    }

    #[test]
    fn queue_spans_fold_into_nvme_component() {
        let mut b = Breakdown::default();
        b.add_span(&TraceEvent {
            kind: TraceKind::QueueSubmit { qid: 0, cid: 1 },
            start: 0,
            dur: 7,
        });
        b.add_span(&TraceEvent {
            kind: TraceKind::QueueComplete { qid: 0, cid: 1 },
            start: 9,
            dur: 11,
        });
        assert_eq!(b.nvme_ns, 18);
        assert_eq!(b.total(), 18);
    }

    #[test]
    fn breakdown_attributes_every_span_kind() {
        let mut b = Breakdown::default();
        let spans = [
            TraceEvent { kind: TraceKind::FlashRead { channel: 0, lun: 0 }, start: 0, dur: 10 },
            TraceEvent { kind: TraceKind::FlashProgram { channel: 0, lun: 0 }, start: 0, dur: 20 },
            TraceEvent {
                kind: TraceKind::DramTransfer {
                    client: cosmos_sim::dram::DramClient::PeLoad,
                    bytes: 1,
                    wait_ns: 0,
                },
                start: 0,
                dur: 30,
            },
            TraceEvent { kind: TraceKind::PeJob { pe: 0, cycles: 4 }, start: 0, dur: 40 },
            TraceEvent {
                kind: TraceKind::RegAccess { pe: 0, writes: 1, reads: 0 },
                start: 0,
                dur: 50,
            },
            TraceEvent { kind: TraceKind::NvmeTransfer { bytes: 8 }, start: 0, dur: 60 },
        ];
        for ev in &spans {
            b.add_span(ev);
        }
        assert_eq!(b.flash_ns, 30);
        assert_eq!(b.dram_ns, 30);
        assert_eq!(b.pe_ns, 40);
        assert_eq!(b.cfg_ns, 50);
        assert_eq!(b.nvme_ns, 60);
        assert_eq!(b.total(), 210);
    }

    #[test]
    fn registry_records_per_kind() {
        let mut r = MetricsRegistry::new();
        r.record(OpKind::Get, 1000, 80);
        r.record(OpKind::Get, 2000, 80);
        r.record(OpKind::Scan, 5_000_000, 4096);
        assert_eq!(r.op(OpKind::Get).ops, 2);
        assert_eq!(r.op(OpKind::Get).bytes, 160);
        assert_eq!(r.op(OpKind::Scan).hist.max(), 5_000_000);
        assert_eq!(r.op(OpKind::Put).ops, 0);
        assert_eq!(r.total_ops(), 3);
    }

    #[test]
    fn device_stats_render_is_stable_and_skips_idle_ops() {
        let mut s = DeviceStats::default();
        s.metrics.record(OpKind::Get, 250_000, 80);
        s.metrics.attribute(
            OpKind::Get,
            &[TraceEvent { kind: TraceKind::NvmeTransfer { bytes: 80 }, start: 0, dur: 67 }],
        );
        let text = format!("{s}");
        assert!(text.contains("GET         ops=1 bytes=80"), "{text}");
        assert!(text.contains("nvme=67 ns (100.0%)"), "{text}");
        assert!(!text.contains("SCAN"), "idle op classes are omitted: {text}");
        // Byte-stable for identical inputs.
        assert_eq!(text, format!("{s}"));
    }

    /// Seeded property sweep (SplitMix64, proptest-style): a histogram
    /// holding exactly one sample must report that sample's bin — i.e.
    /// the sample itself, since bucket upper bounds clamp to the
    /// observed max — for *every* quantile, including the deep tail.
    #[test]
    fn prop_single_sample_owns_every_quantile() {
        let mut rng = ndp_workload::SplitMix64::new(0xCAFE);
        let qs = [0.0, 0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0];
        for case in 0..500 {
            // Mix magnitudes: small counts, bucket boundaries, huge
            // durations (bucket 63 included via u64::MAX - k).
            let ns = match case % 4 {
                0 => rng.gen_u64(16),
                1 => 1u64 << rng.gen_u64(64),
                2 => rng.next_u64() >> rng.gen_u64(60),
                _ => u64::MAX - rng.gen_u64(1 << 20),
            };
            let mut h = LatencyHistogram::new();
            h.record(ns);
            for &q in &qs {
                assert_eq!(h.quantile(q), ns, "q={q} ns={ns}");
            }
        }
    }

    /// Seeded property sweep: for arbitrary sample sets, quantiles are
    /// monotone in `q`, never exceed the observed max (the p99.9 clamp
    /// of the bugfix audit), and never undershoot the smallest sample's
    /// bucket's span.
    #[test]
    fn prop_quantiles_are_monotone_and_clamped_to_max() {
        let mut rng = ndp_workload::SplitMix64::new(0xF00D);
        let qs = [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0];
        for _ in 0..200 {
            let n = 1 + rng.gen_u64(64) as usize;
            let mut h = LatencyHistogram::new();
            let mut min_sample = u64::MAX;
            for _ in 0..n {
                let ns = rng.next_u64() >> rng.gen_u64(64);
                h.record(ns);
                min_sample = min_sample.min(ns);
            }
            let vals: Vec<SimNs> = qs.iter().map(|&q| h.quantile(q)).collect();
            for w in vals.windows(2) {
                assert!(w[0] <= w[1], "quantiles must be monotone: {vals:?}");
            }
            assert!(vals.iter().all(|&v| v <= h.max()), "q must clamp to max: {vals:?}");
            // The lowest quantile answers with the smallest sample's
            // bucket, whose upper bound is within 2x of the sample.
            assert!(
                vals[0] >= min_sample / 2,
                "q=0 answered below the smallest sample's bin: {} < {min_sample}/2",
                vals[0]
            );
        }
    }

    #[test]
    fn device_stats_cache_line_renders_only_when_enabled() {
        let mut s = DeviceStats::default();
        s.metrics.record(OpKind::Scan, 1_000_000, 4096);
        let off = format!("{s}");
        assert!(!off.contains("cache:"), "disabled cache must not render: {off}");
        s.cache = Some(cosmos_sim::CacheStats {
            lookups: 4,
            hits: 3,
            misses: 1,
            insertions: 1,
            evictions: 0,
            invalidations: 2,
            hit_bytes: 96 * 1024,
        });
        let on = format!("{s}");
        assert!(
            on.contains(
                "cache: lookups=4 hits=3 (75.0%) misses=1 insertions=1 \
                         evictions=0 invalidations=2"
            ),
            "{on}"
        );
    }

    #[test]
    fn registry_merge_equals_recording_into_one() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        let mut all = MetricsRegistry::new();
        for (into_a, kind, ns, bytes) in [
            (true, OpKind::Get, 1_000u64, 80u64),
            (true, OpKind::Scan, 5_000_000, 4096),
            (false, OpKind::Get, 2_000, 80),
            (false, OpKind::Put, 300, 128),
        ] {
            if into_a { &mut a } else { &mut b }.record(kind, ns, bytes);
            all.record(kind, ns, bytes);
        }
        let span = TraceEvent { kind: TraceKind::NvmeTransfer { bytes: 80 }, start: 0, dur: 67 };
        a.attribute(OpKind::Get, std::slice::from_ref(&span));
        b.attribute(OpKind::Get, std::slice::from_ref(&span));
        all.attribute(OpKind::Get, &[span, span]);
        a.merge(&b);
        assert_eq!(a, all, "cross-shard fold == recording everything into one registry");
        assert_eq!(a.total_ops(), 4);
    }

    #[test]
    fn total_breakdown_sums_every_op_class() {
        let mut r = MetricsRegistry::new();
        r.attribute(
            OpKind::Get,
            &[TraceEvent { kind: TraceKind::FlashRead { channel: 0, lun: 0 }, start: 0, dur: 10 }],
        );
        r.attribute(
            OpKind::Scan,
            &[TraceEvent { kind: TraceKind::PeJob { pe: 0, cycles: 4 }, start: 0, dur: 40 }],
        );
        let total = r.total_breakdown();
        assert_eq!(total.flash_ns, 10);
        assert_eq!(total.pe_ns, 40);
        assert_eq!(total.total(), 50);
    }

    #[test]
    fn dropped_spans_line_renders_only_when_nonzero() {
        let mut s = DeviceStats::default();
        s.metrics.record(OpKind::Get, 1_000, 80);
        let clean = format!("{s}");
        assert!(!clean.contains("dropped_spans"), "zero drops must not render: {clean}");
        s.dropped_spans = 7;
        let overflowed = format!("{s}");
        assert!(overflowed.contains("trace: dropped_spans=7 (ring overflowed)"), "{overflowed}");
    }

    #[test]
    fn fmt_ns_picks_readable_units() {
        assert_eq!(fmt_ns(0), "0 ns");
        assert_eq!(fmt_ns(9_999), "9999 ns");
        assert_eq!(fmt_ns(150_000), "150.0 us");
        assert_eq!(fmt_ns(67_000_000), "67.00 ms");
        assert_eq!(fmt_ns(5_512_000_000), "5.512 s");
    }
}
