//! Fleet-level fault domains: one nKV namespace sharded across N
//! simulated Cosmos+ devices.
//!
//! The paper evaluates a *single* smart-storage device; real deployments
//! put many of them behind one host, and the host must treat each device
//! as an independent fault domain — a hung controller, a pulled power
//! rail or a flapping NVMe link takes out one shard, not the namespace.
//! This module is that host-side layer:
//!
//! * [`NkvCluster`] — a router over N independent [`NkvDb`] instances
//!   (each its own `CosmosPlatform`). Keys are placed by a
//!   [`ShardStrategy`] (stateless hash or explicit range boundaries).
//!   Every read is one call, [`NkvCluster::execute`], taking the same
//!   [`LogicalOp`] and [`Tier`] as [`NkvDb::execute`] and returning the
//!   same [`PlanOutcome`]: GET routes to one shard, a batched GET splits
//!   per shard, SCAN / RANGE_SCAN / aggregate fan out device-parallel,
//!   and one merge puts the answers back together in shard-index order.
//!   With one device the router is a pass-through: every result is
//!   byte-identical to calling the [`NkvDb`] directly.
//! * **Health FSM** — each shard runs `Healthy → Degraded → Quarantined
//!   → Dead` (with `Recovered` on the way back), driven by the typed
//!   [`NkvError`]s and device-level fault admissions the shard returns.
//!   A quarantined shard is probed every few cluster ops and either
//!   recovers or (after repeated failed probes) is declared dead; a dead
//!   shard only comes back through an explicit [`NkvCluster::heal_shard`].
//! * **Read policy** — [`ReadPolicy::Strict`] turns any unavailable
//!   shard into a typed [`NkvError::ShardUnavailable`];
//!   [`ReadPolicy::Available`] returns the surviving shards' results and
//!   lists the holes in `missing_shards`, so callers can tell a true
//!   miss from a degraded read.
//! * **One shard call** — every call into a shard, read or write
//!   (PUT, DELETE, flush, persist, bulk load, a queued run's per-shard
//!   run), goes through one fan-out: device admission, the same bounded
//!   retry/backoff policy the device firmware uses (3 retries after 50,
//!   100 and 200 µs, charged to the operation's reported time), and one
//!   health-FSM score. Writes and queued runs have no partial mode: they
//!   run it under `Strict`.
//! * **One snapshot** — [`NkvCluster::cluster_stats`] reports every
//!   shard's FSM state and counters beside its device metrics, and the
//!   router's retries.
//!
//! Determinism: shards are a `Vec`, fan-out visits them in index order,
//! merges concatenate in that order, and an operation's cluster time is
//! the *maximum* participant time (the fan-out is device-parallel).
//! Nothing here consults a clock or RNG of its own, so a seeded chaos
//! campaign replays exactly.

use crate::db::{MultiGetResults, NkvDb, TableConfig};
use crate::engine::{backoff_before_retry, MAX_READ_RETRIES};
use crate::error::{NkvError, NkvResult};
use crate::exec::SimReport;
use crate::metrics::{fmt_ns, DeviceStats, LatencyHistogram, MetricsRegistry, OpKind};
use crate::plan::{Backend, LogicalOp, PlanOutcome, Tier};
use crate::queue::{ClientScript, QueueRunConfig, QueuedOp};
use cosmos_sim::{
    ns_to_secs, CacheStats, CosmosConfig, CosmosPlatform, DeviceAdmission, DeviceFaultKind,
    DeviceTrace, RouterSpan, RouterSpanKind, SimNs,
};
use std::borrow::Cow;
use std::fmt;

/// Simulated cost of one router dispatch/merge step (the host-side hop
/// a fan-out pays before and after the devices run). Purely a trace
/// annotation: it is *never* added to any operation's reported time, so
/// enabling cluster observability stays timing-invisible.
const ROUTER_DISPATCH_NS: SimNs = 1_000;

/// How keys are placed onto shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardStrategy {
    /// Stateless hash placement: a 64-bit finalizer mix of the key,
    /// modulo the device count. Uniform, no metadata, no locality.
    Hash,
    /// Explicit range placement: `boundaries[i]` is the first key of
    /// shard `i + 1` (so `boundaries.len()` must be `devices - 1`, in
    /// strictly ascending order). Keeps key ranges contiguous per
    /// device, which lets RANGE_SCAN prune shards that provably hold no
    /// matching keys.
    Range { boundaries: Vec<u64> },
}

/// What a read does when a shard it needs is unavailable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadPolicy {
    /// Fail the whole operation with [`NkvError::ShardUnavailable`].
    Strict,
    /// Return the surviving shards' results and list the unavailable
    /// shards in `missing_shards`.
    #[default]
    Available,
}

/// Sliding error window of the health FSM, in ops (at most 64: the
/// window is one `u64` of outcome bits).
const HEALTH_WINDOW: u32 = 16;

/// Error rate over the window at which a `Degraded` shard is
/// quarantined.
const QUARANTINE_ERROR_RATE: f64 = 0.5;

/// Window samples needed before the quarantine rate is evaluated (so a
/// single early error cannot quarantine a shard).
const QUARANTINE_MIN_SAMPLES: u32 = 4;

/// A quarantined shard is probed once every this many cluster ops.
const PROBE_INTERVAL_OPS: u64 = 8;

/// Consecutive failed probes after which a quarantined shard is
/// declared `Dead`.
const DEAD_AFTER_PROBES: u32 = 3;

/// Consecutive successes that promote `Recovered` (or `Degraded`) back
/// to `Healthy`.
const RECOVERED_OK_OPS: u32 = 4;

/// Health state of one shard, as seen by the router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardState {
    /// Serving normally.
    Healthy,
    /// Recent errors, still serving (every op is a chance to recover).
    Degraded,
    /// Error rate crossed the threshold: no traffic, periodic probes.
    Quarantined,
    /// Probes kept failing. Only [`NkvCluster::heal_shard`] revives it.
    Dead,
    /// Came back (successful probe or explicit heal); serving, one error
    /// away from `Degraded`, promoted to `Healthy` after a run of
    /// successes.
    Recovered,
}

impl ShardState {
    /// Order on the failure ladder: `Healthy(0) < Recovered(1) <
    /// Degraded(2) < Quarantined(3) < Dead(4)`. Under *sustained* faults
    /// (no successful op or probe, no heal) a shard's severity never
    /// decreases — the chaos suite asserts this monotonicity.
    pub fn severity(self) -> u8 {
        match self {
            ShardState::Healthy => 0,
            ShardState::Recovered => 1,
            ShardState::Degraded => 2,
            ShardState::Quarantined => 3,
            ShardState::Dead => 4,
        }
    }

    /// Does the router send this shard traffic?
    pub(crate) fn serving(self) -> bool {
        matches!(self, ShardState::Healthy | ShardState::Degraded | ShardState::Recovered)
    }
}

impl fmt::Display for ShardState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ShardState::Healthy => "healthy",
            ShardState::Degraded => "degraded",
            ShardState::Quarantined => "quarantined",
            ShardState::Dead => "dead",
            ShardState::Recovered => "recovered",
        };
        f.write_str(s)
    }
}

/// The per-shard health state machine, tuned by the constants above.
#[derive(Debug, Clone)]
struct HealthFsm {
    state: ShardState,
    /// Outcome bits of the last `window_len` routed ops (bit 0 =
    /// newest; 1 = error).
    window_bits: u64,
    window_len: u32,
    consecutive_ok: u32,
    ops_total: u64,
    errors_total: u64,
    ops_since_probe: u64,
    probes_sent: u64,
    /// Consecutive failed probes in the current quarantine.
    probe_failures: u32,
    transitions: u64,
}

impl HealthFsm {
    fn new() -> Self {
        Self {
            state: ShardState::Healthy,
            window_bits: 0,
            window_len: 0,
            consecutive_ok: 0,
            ops_total: 0,
            errors_total: 0,
            ops_since_probe: 0,
            probes_sent: 0,
            probe_failures: 0,
            transitions: 0,
        }
    }

    fn set_state(&mut self, next: ShardState) {
        if self.state != next {
            self.state = next;
            self.transitions += 1;
        }
    }

    fn record(&mut self, err: bool) {
        self.window_bits = ((self.window_bits << 1) | err as u64) & ((1u64 << HEALTH_WINDOW) - 1);
        if self.window_len < HEALTH_WINDOW {
            self.window_len += 1;
        }
        self.ops_total += 1;
        if err {
            self.errors_total += 1;
            self.consecutive_ok = 0;
        } else {
            self.consecutive_ok += 1;
        }
    }

    fn window_error_rate(&self) -> f64 {
        if self.window_len == 0 {
            return 0.0;
        }
        self.window_bits.count_ones() as f64 / self.window_len as f64
    }

    fn on_success(&mut self) {
        self.record(false);
        if matches!(self.state, ShardState::Degraded | ShardState::Recovered)
            && self.consecutive_ok >= RECOVERED_OK_OPS
        {
            self.set_state(ShardState::Healthy);
        }
    }

    fn on_error(&mut self) {
        self.record(true);
        match self.state {
            ShardState::Healthy | ShardState::Recovered => self.set_state(ShardState::Degraded),
            ShardState::Degraded => {
                if self.window_len >= QUARANTINE_MIN_SAMPLES
                    && self.window_error_rate() >= QUARANTINE_ERROR_RATE
                {
                    self.ops_since_probe = 0;
                    self.probe_failures = 0;
                    self.set_state(ShardState::Quarantined);
                }
            }
            // Quarantined/Dead shards get no traffic, so no op errors.
            ShardState::Quarantined | ShardState::Dead => {}
        }
    }

    /// Tick the probe counter (one cluster op elapsed); returns whether
    /// a probe is due now. Only meaningful in `Quarantined`.
    fn probe_due(&mut self) -> bool {
        self.ops_since_probe += 1;
        if self.ops_since_probe >= PROBE_INTERVAL_OPS {
            self.ops_since_probe = 0;
            true
        } else {
            false
        }
    }

    fn on_probe(&mut self, ok: bool) {
        self.probes_sent += 1;
        if ok {
            self.reset_window();
            self.set_state(ShardState::Recovered);
        } else {
            self.probe_failures += 1;
            if self.probe_failures >= DEAD_AFTER_PROBES {
                self.set_state(ShardState::Dead);
            }
        }
    }

    fn heal(&mut self) {
        self.reset_window();
        self.set_state(ShardState::Recovered);
    }

    fn reset_window(&mut self) {
        self.window_bits = 0;
        self.window_len = 0;
        self.consecutive_ok = 0;
        self.probe_failures = 0;
        self.ops_since_probe = 0;
    }
}

/// One shard: an independent simulated device plus its health FSM.
struct Shard {
    db: NkvDb,
    fsm: HealthFsm,
}

/// Cluster construction parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of simulated devices (>= 1).
    pub devices: usize,
    /// Key placement.
    pub strategy: ShardStrategy,
    /// Behaviour of reads that need an unavailable shard.
    pub read_policy: ReadPolicy,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self { devices: 4, strategy: ShardStrategy::Hash, read_policy: ReadPolicy::Available }
    }
}

/// A cluster point lookup's outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterGet {
    /// The record, if its shard served and had it.
    pub record: Option<Vec<u8>>,
    /// Shards that could not serve (empty under [`ReadPolicy::Strict`],
    /// which errors instead).
    pub missing_shards: Vec<usize>,
    /// Simulated device time, including router backoff.
    pub sim_ns: SimNs,
}

/// Outcome of a cluster-wide queued run ([`NkvCluster::run_queued`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterRunReport {
    /// Ops in the submitted scripts (a SCAN counts once, even though it
    /// fans out to every shard).
    pub logical_ops: u64,
    /// Device-side command completions summed over shards (>=
    /// `logical_ops` once scans fan out).
    pub completions: u64,
    /// Cluster wall time: the maximum shard span (shards run
    /// device-parallel).
    pub span_ns: SimNs,
    /// Submit→complete latency merged across shards.
    pub latency: LatencyHistogram,
    /// Each shard's own span, by shard index.
    pub shard_spans: Vec<SimNs>,
}

impl ClusterRunReport {
    /// Logical operations per second of cluster wall time.
    pub fn throughput_ops_per_sec(&self) -> f64 {
        if self.span_ns == 0 {
            0.0
        } else {
            self.logical_ops as f64 / ns_to_secs(self.span_ns)
        }
    }
}

/// One shard's full observability snapshot inside a [`ClusterStats`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStatsRow {
    /// Shard index.
    pub shard: usize,
    /// FSM state at snapshot time.
    pub state: ShardState,
    /// Routed ops (successes + errors) the FSM has scored.
    pub(crate) routed_ops: u64,
    /// Errors the FSM has scored.
    pub(crate) errors: u64,
    /// Probes sent while quarantined.
    pub probes_sent: u64,
    /// State transitions taken.
    pub(crate) transitions: u64,
    /// The shard device's own [`DeviceStats`] (metrics + health + cache
    /// + dropped trace spans).
    pub stats: DeviceStats,
}

/// The fleet's one snapshot ([`NkvCluster::cluster_stats`]): every
/// shard's health-FSM state and counters and its [`DeviceStats`], the
/// cross-shard fold, and the router's retries.
///
/// The merged registry is exact — log-bucket histograms merge
/// bucket-wise ([`LatencyHistogram::merge`]) and breakdowns add — so
/// fleet quantiles equal the quantiles of every shard's samples
/// concatenated (the property test pins this). `busy_skew` is the
/// max/median ratio of per-shard total busy time: ~1.0 means placement
/// spread load evenly, >>1 flags a hot shard for the future rebalancer.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterStats {
    /// Per-shard rows, by shard index.
    pub shards: Vec<ShardStatsRow>,
    /// Cross-shard fold of every shard's metrics registry.
    pub merged: MetricsRegistry,
    /// Summed block-cache counters (`None` when no shard has a cache).
    pub(crate) merged_cache: Option<CacheStats>,
    /// Trace spans lost to ring overflow, summed over shards.
    pub dropped_spans: u64,
    /// Router-level retries across all shards.
    pub router_retries: u64,
    /// Backoff nanoseconds the router charged to operations.
    pub(crate) router_backoff_ns: u64,
    /// Max/median per-shard busy time (0.0 when the median is zero —
    /// an idle or untraced fleet has no meaningful skew).
    pub busy_skew: f64,
}

impl ClusterStats {
    /// Total operations recorded across the fleet.
    pub fn total_ops(&self) -> u64 {
        self.merged.total_ops()
    }
}

impl fmt::Display for ClusterStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cluster stats: {} shards, {} ops, busy skew {:.2}x",
            self.shards.len(),
            self.total_ops(),
            self.busy_skew,
        )?;
        for row in &self.shards {
            let b = row.stats.metrics.total_breakdown();
            write!(
                f,
                "  shard {} [{}]: ops={} busy={} (flash={} dram={} pe={} cfg={} nvme={})",
                row.shard,
                row.state,
                row.stats.metrics.total_ops(),
                fmt_ns(b.total()),
                fmt_ns(b.flash_ns),
                fmt_ns(b.dram_ns),
                fmt_ns(b.pe_ns),
                fmt_ns(b.cfg_ns),
                fmt_ns(b.nvme_ns),
            )?;
            if let Some(c) = &row.stats.cache {
                write!(f, " cache_hits={} ({:.1}%)", c.hits, c.hit_rate() * 100.0)?;
            }
            if row.stats.dropped_spans > 0 {
                write!(f, " dropped_spans={}", row.stats.dropped_spans)?;
            }
            if row.errors > 0 || row.probes_sent > 0 {
                write!(
                    f,
                    " routed={} errors={} probes={} transitions={}",
                    row.routed_ops, row.errors, row.probes_sent, row.transitions
                )?;
            }
            writeln!(f)?;
        }
        for kind in OpKind::ALL {
            let m = self.merged.op(kind);
            if m.ops == 0 {
                continue;
            }
            writeln!(
                f,
                "  merged {:<11} ops={} bytes={} {}",
                kind.name(),
                m.ops,
                m.bytes,
                m.hist.percentile_summary(),
            )?;
        }
        if let Some(c) = &self.merged_cache {
            writeln!(
                f,
                "  merged cache: lookups={} hits={} ({:.1}%) misses={}",
                c.lookups,
                c.hits,
                c.hit_rate() * 100.0,
                c.misses,
            )?;
        }
        if self.dropped_spans > 0 {
            writeln!(f, "  merged trace: dropped_spans={} (ring overflowed)", self.dropped_spans)?;
        }
        write!(
            f,
            "  router: {} retries (+{} ns backoff)",
            self.router_retries, self.router_backoff_ns
        )
    }
}

/// Why a shard call failed, split into the two classes the router
/// treats differently.
enum ShardCallError {
    /// Device/shard infrastructure failure — scored by the health FSM,
    /// absorbed or surfaced per [`ReadPolicy`].
    Fault(String),
    /// Caller mistake (unknown table, bad lane, size mismatch, ...) —
    /// propagated verbatim, never scored against the shard.
    Logic(NkvError),
}

/// Is this error the shard's fault (infrastructure) rather than the
/// caller's (logic)?
fn is_shard_fault(e: &NkvError) -> bool {
    matches!(
        e,
        NkvError::Flash(_)
            | NkvError::CorruptBlock { .. }
            | NkvError::RetriesExhausted { .. }
            | NkvError::ShardUnavailable { .. }
    )
}

fn admission_reason(kind: DeviceFaultKind) -> &'static str {
    match kind {
        DeviceFaultKind::Hang => "device hang",
        DeviceFaultKind::PowerCut => "device power cut",
        DeviceFaultKind::LinkLoss => "nvme link loss",
        DeviceFaultKind::Slow { .. } => "gray slowdown",
    }
}

/// 64-bit finalizer mix (murmur3-style): avalanche the key so
/// consecutive keys spread across shards.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^= x >> 33;
    x
}

/// Run one shard call under the router's bounded retry/backoff policy,
/// the firmware's own: [`MAX_READ_RETRIES`] retries, each after
/// [`backoff_before_retry`].
///
/// Every attempt first passes the device's admission gate (the
/// cluster-level fault hook): a rejected admission counts as a failed
/// attempt, a gray-slow admission stretches the op's reported time by
/// `factor_x10 / 10`. Backoff nanoseconds accumulate into the returned
/// time, mirroring what a host-side retry loop would cost in wall time.
fn shard_call<T>(
    shard: &mut Shard,
    retries: &mut u64,
    backoff_total: &mut u64,
    mut op: impl FnMut(&mut NkvDb) -> NkvResult<(T, SimNs)>,
) -> Result<(T, SimNs), ShardCallError> {
    let mut penalty: SimNs = 0;
    let mut attempt: u32 = 0;
    loop {
        attempt += 1;
        let outcome = match shard.db.platform_mut().device_op_admit() {
            DeviceAdmission::Rejected(kind) => Err(admission_reason(kind).to_string()),
            admitted => match (op(&mut shard.db), admitted) {
                (Ok((v, ns)), DeviceAdmission::Slow { factor_x10 }) => {
                    Ok((v, ns.saturating_mul(factor_x10 as u64) / 10))
                }
                (Ok(out), _) => Ok(out),
                (Err(e), _) if is_shard_fault(&e) => Err(e.to_string()),
                (Err(e), _) => return Err(ShardCallError::Logic(e)),
            },
        };
        match outcome {
            Ok((v, ns)) => return Ok((v, ns.saturating_add(penalty))),
            Err(reason) => {
                if attempt > MAX_READ_RETRIES {
                    return Err(ShardCallError::Fault(reason));
                }
                let backoff = backoff_before_retry(attempt);
                penalty = penalty.saturating_add(backoff);
                *retries += 1;
                *backoff_total += backoff;
            }
        }
    }
}

/// A host-side router over N independent simulated Cosmos+ devices.
///
/// See the `cluster` module docs for semantics. All mutating entry points
/// first give quarantined shards their probe tick, so recovery needs no
/// background thread — it rides on foreground traffic, deterministic in
/// op counts.
pub struct NkvCluster {
    cfg: ClusterConfig,
    shards: Vec<Shard>,
    /// Tables created so far — the recovery recipe a healed device
    /// rebuilds from after a power cut.
    table_configs: Vec<(String, TableConfig)>,
    router_retries: u64,
    router_backoff_ns: u64,
    /// The trace ring capacity of [`NkvCluster::enable_observability`],
    /// once called: router spans are recorded, and a healed shard comes
    /// back observed.
    trace_capacity: Option<usize>,
    /// The router's own virtual timeline: fan-outs of successive ops
    /// are laid out back to back so the merged flame graph reads as a
    /// sequence, independent of any shard's device clock.
    router_clock: SimNs,
    /// Synthetic fan-out / per-shard-wait / merge spans recorded so far.
    router_spans: Vec<RouterSpan>,
}

impl NkvCluster {
    /// Build a cluster of `cfg.devices` fresh devices.
    pub fn new(cfg: ClusterConfig) -> NkvResult<Self> {
        if cfg.devices == 0 {
            return Err(NkvError::Config("cluster needs at least 1 device".into()));
        }
        if let ShardStrategy::Range { boundaries } = &cfg.strategy {
            if boundaries.len() != cfg.devices - 1 {
                return Err(NkvError::Config(format!(
                    "range sharding over {} devices needs {} boundaries, got {}",
                    cfg.devices,
                    cfg.devices - 1,
                    boundaries.len()
                )));
            }
            if boundaries.windows(2).any(|w| w[0] >= w[1]) {
                return Err(NkvError::Config("range boundaries must be strictly ascending".into()));
            }
        }
        let shards = (0..cfg.devices)
            .map(|_| Shard { db: NkvDb::default_db(), fsm: HealthFsm::new() })
            .collect();
        Ok(Self {
            cfg,
            shards,
            table_configs: Vec::new(),
            router_retries: 0,
            router_backoff_ns: 0,
            trace_capacity: None,
            router_clock: 0,
            router_spans: Vec::new(),
        })
    }

    /// Turn on the full fleet observability stack: op metrics plus
    /// event tracing on every shard device (each ring holds up to
    /// `trace_capacity` spans), and synthetic router spans on the
    /// router's own virtual timeline. Timing-invisible like the
    /// single-device stack: every reported `sim_ns` is byte-identical
    /// to an unobserved cluster.
    pub fn enable_observability(&mut self, trace_capacity: usize) {
        for shard in &mut self.shards {
            shard.db.enable_observability(trace_capacity);
        }
        self.trace_capacity = Some(trace_capacity);
    }

    /// Number of devices.
    pub fn devices(&self) -> usize {
        self.shards.len()
    }

    /// Which shard owns `key` under the cluster's placement strategy.
    pub fn shard_for_key(&self, key: u64) -> usize {
        match &self.cfg.strategy {
            ShardStrategy::Hash => (mix64(key) % self.shards.len() as u64) as usize,
            ShardStrategy::Range { boundaries } => boundaries.partition_point(|&b| b <= key),
        }
    }

    /// Which shard owns `record`'s embedded key (its first 8 bytes). A
    /// record too short to carry one draws the same typed
    /// `RecordSizeMismatch` from any shard, so it routes to shard 0.
    fn shard_for_record(&self, record: &[u8]) -> usize {
        match record.get(..8).and_then(|k| <[u8; 8]>::try_from(k).ok()) {
            Some(k) => self.shard_for_key(u64::from_le_bytes(k)),
            None => 0,
        }
    }

    /// Direct access to one shard's device — the chaos-test and
    /// operations escape hatch (inject faults, inspect flash, compare
    /// against a standalone device).
    pub fn shard_db(&mut self, shard: usize) -> NkvResult<&mut NkvDb> {
        let n = self.shards.len();
        self.shards.get_mut(shard).map(|s| &mut s.db).ok_or_else(|| {
            NkvError::Config(format!("shard {shard} out of range (cluster has {n})"))
        })
    }

    /// Repair one shard, clearing its device fault and resetting its FSM
    /// to `Recovered` (the operator swapped the cable / power-cycled the
    /// enclosure).
    ///
    /// A power-cut fault destroys the device's volatile state, so the
    /// heal path rebuilds the shard the same way the single-device
    /// recovery test does: carry the flash image over, clear the cut,
    /// and run manifest recovery against the tables created so far.
    /// Unflushed memtable contents are lost — exactly the volatility
    /// contract [`NkvDb::persist`] documents. The rebuilt shard keeps its
    /// session: the fleet's observability, each table's PE job streams
    /// and its block-cache budget (the cache itself comes back empty).
    /// Installed fault plans do not carry over.
    pub fn heal_shard(&mut self, shard: usize) -> NkvResult<()> {
        let fault = self.shard_db(shard)?.platform_mut().device_fault_active();
        match fault {
            Some(DeviceFaultKind::PowerCut) => {
                let old = &mut self.shards[shard].db;
                let mut fresh = CosmosPlatform::new(CosmosConfig::default());
                fresh.flash = old.platform_mut().flash.clone();
                fresh.flash.reboot();
                let mut db = NkvDb::recover(fresh, self.table_configs.clone())?;
                db.resume_session(old);
                if let Some(capacity) = self.trace_capacity {
                    db.enable_observability(capacity);
                }
                *old = db;
            }
            _ => self.shards[shard].db.platform_mut().clear_device_fault(),
        }
        self.shards[shard].fsm.heal();
        Ok(())
    }

    /// The fleet's snapshot: every shard's health-FSM state and counters
    /// and its [`DeviceStats`], plus the exact cross-shard fold (see
    /// [`ClusterStats`]).
    pub fn cluster_stats(&self) -> ClusterStats {
        let shards: Vec<ShardStatsRow> = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, s)| ShardStatsRow {
                shard: i,
                state: s.fsm.state,
                routed_ops: s.fsm.ops_total,
                errors: s.fsm.errors_total,
                probes_sent: s.fsm.probes_sent,
                transitions: s.fsm.transitions,
                stats: s.db.device_stats(),
            })
            .collect();
        let mut merged = MetricsRegistry::new();
        let mut merged_cache: Option<CacheStats> = None;
        let mut dropped_spans = 0;
        let mut busy: Vec<SimNs> = Vec::with_capacity(shards.len());
        for row in &shards {
            merged.merge(&row.stats.metrics);
            dropped_spans += row.stats.dropped_spans;
            busy.push(row.stats.metrics.total_breakdown().total());
            if let Some(c) = &row.stats.cache {
                let acc = merged_cache.get_or_insert_with(CacheStats::default);
                acc.lookups += c.lookups;
                acc.hits += c.hits;
                acc.misses += c.misses;
                acc.insertions += c.insertions;
                acc.evictions += c.evictions;
                acc.invalidations += c.invalidations;
                acc.hit_bytes += c.hit_bytes;
            }
        }
        let max = busy.iter().copied().max().unwrap_or(0);
        busy.sort_unstable();
        let median = busy[busy.len() / 2];
        let busy_skew = if median == 0 { 0.0 } else { max as f64 / median as f64 };
        ClusterStats {
            shards,
            merged,
            merged_cache,
            dropped_spans,
            router_retries: self.router_retries,
            router_backoff_ns: self.router_backoff_ns,
            busy_skew,
        }
    }

    /// Drain every shard's trace buffer plus the router's synthetic
    /// spans, ready for one merged Chrome export via
    /// [`cosmos_sim::chrome_trace_json_cluster`] (device `i`'s pids are
    /// offset by `DEVICE_PID_STRIDE * i` there; the router gets its own
    /// process). Empty while observability is off.
    pub fn take_cluster_trace(&mut self) -> (Vec<DeviceTrace>, Vec<RouterSpan>) {
        let devices = self
            .shards
            .iter_mut()
            .enumerate()
            .map(|(i, s)| {
                let events = s.db.take_trace();
                DeviceTrace {
                    device: i as u32,
                    events,
                    dropped_spans: s.db.platform_mut().trace_dropped(),
                }
            })
            .collect();
        (devices, std::mem::take(&mut self.router_spans))
    }

    /// Record one fan-out on the router's virtual timeline: a dispatch
    /// marker, one wait span per participating shard (that shard's
    /// device time), and a merge marker after the slowest wait. No-op
    /// while router tracing is off; never touches any reported time.
    fn record_router_fanout(&mut self, waits: &[(usize, SimNs)]) {
        if self.trace_capacity.is_none() || waits.is_empty() {
            return;
        }
        let shards = waits.len() as u32;
        let start = self.router_clock;
        self.router_spans.push(RouterSpan {
            kind: RouterSpanKind::FanOut { shards },
            start,
            dur: ROUTER_DISPATCH_NS,
        });
        let wait_start = start + ROUTER_DISPATCH_NS;
        let mut max_wait: SimNs = 0;
        for &(shard, ns) in waits {
            self.router_spans.push(RouterSpan {
                kind: RouterSpanKind::ShardWait { shard: shard as u32 },
                start: wait_start,
                dur: ns,
            });
            max_wait = max_wait.max(ns);
        }
        self.router_spans.push(RouterSpan {
            kind: RouterSpanKind::Merge { shards },
            start: wait_start + max_wait,
            dur: ROUTER_DISPATCH_NS,
        });
        self.router_clock = wait_start + max_wait + ROUTER_DISPATCH_NS;
    }

    /// Create `name` on every shard (a table spans the namespace).
    pub fn create_table(&mut self, name: &str, cfg: TableConfig) -> NkvResult<()> {
        for shard in &mut self.shards {
            shard.db.create_table(name, cfg.clone())?;
        }
        self.table_configs.push((name.to_string(), cfg));
        Ok(())
    }

    /// Route a PUT to the key's shard. Writes have no partial mode: an
    /// unavailable target shard is always a typed
    /// [`NkvError::ShardUnavailable`], under either read policy.
    pub fn put(&mut self, table: &str, record: Vec<u8>) -> NkvResult<()> {
        let shard = self.shard_for_record(&record);
        let put = |_, db: &mut NkvDb| db.put(table, record.clone()).map(|()| ((), 0));
        self.fanout(ReadPolicy::Strict, [shard], put, |_, (), _| {}).map(drop)
    }

    /// Route a DELETE to the key's shard (same write semantics as
    /// [`NkvCluster::put`]).
    pub fn delete(&mut self, table: &str, key: u64) -> NkvResult<()> {
        let shard = self.shard_for_key(key);
        let delete = |_, db: &mut NkvDb| db.delete(table, key).map(|()| ((), 0));
        self.fanout(ReadPolicy::Strict, [shard], delete, |_, (), _| {}).map(drop)
    }

    /// Flush every shard's memtable.
    pub fn flush(&mut self, table: &str) -> NkvResult<()> {
        let flush = |_, db: &mut NkvDb| db.flush(table).map(|()| ((), 0));
        self.fanout(ReadPolicy::Strict, 0..self.shards.len(), flush, |_, (), _| {}).map(drop)
    }

    /// Persist every shard's manifest (see [`NkvDb::persist`]).
    pub fn persist(&mut self) -> NkvResult<()> {
        let persist = |_, db: &mut NkvDb| db.persist().map(|()| ((), 0));
        self.fanout(ReadPolicy::Strict, 0..self.shards.len(), persist, |_, (), _| {}).map(drop)
    }

    /// Bulk load sorted records, partitioned by shard. The input must be
    /// in strictly ascending key order (the single-device contract);
    /// partitioning preserves that order per shard. Returns the total
    /// records loaded.
    pub fn bulk_load(&mut self, table: &str, records: Vec<Vec<u8>>) -> NkvResult<u64> {
        let mut parts: Vec<Vec<Vec<u8>>> = vec![Vec::new(); self.shards.len()];
        for rec in records {
            parts[self.shard_for_record(&rec)].push(rec);
        }
        let loaded: Vec<usize> = (0..parts.len()).filter(|&s| !parts[s].is_empty()).collect();
        let mut total = 0;
        self.fanout(
            ReadPolicy::Strict,
            loaded,
            |shard, db| db.bulk_load(table, parts[shard].clone()).map(|n| (n, 0)),
            |_, n, _| total += n,
        )?;
        Ok(total)
    }

    /// Set the parallel-PE stream count on every shard's table.
    pub fn set_parallel_pes(&mut self, table: &str, n: usize) -> NkvResult<()> {
        for shard in &mut self.shards {
            shard.db.set_parallel_pes(table, n)?;
        }
        Ok(())
    }

    /// The one fleet read: route `op` to the shards that can hold its
    /// answer, run it on each through [`NkvDb::execute`] on `tier`, and
    /// merge the answers in shard order into the outcome one device
    /// would give. Returns that outcome and the shards that could not
    /// serve (empty under [`ReadPolicy::Strict`], which errors instead).
    ///
    /// * GET goes to the key's shard. A batched GET is validated whole
    ///   against the key-list descriptor contract, then split per shard,
    ///   each slice in the input's relative order; its per-key results
    ///   scatter back to input order, and a key on a missing shard reads
    ///   as `Ok(None)`, exactly like a plain GET.
    /// * SCAN and aggregate fan out to every shard. RANGE_SCAN, under
    ///   range sharding, visits only the shards whose interval meets
    ///   `[lo, hi)`: the pruned ones provably hold nothing, so they are
    ///   not missing. A route that leaves no shard still validates `op`
    ///   against shard 0's table and returns its error.
    /// * Records concatenate; accumulators merge (COUNT/SUM add with
    ///   wraparound, MIN/MAX compare; a shard without a match does not
    ///   contribute).
    ///
    /// On [`Tier::Adaptive`] every shard applies the tier rule to its
    /// own table; the shards share one configuration, so they pick
    /// alike. The outcome's report carries only `sim_ns`: the slowest
    /// participant's time, router backoff included.
    pub fn execute(
        &mut self,
        table: &str,
        op: &LogicalOp,
        tier: impl Into<Tier>,
    ) -> NkvResult<(PlanOutcome, Vec<usize>)> {
        let tier = tier.into();
        // Per shard, the op it runs: a batched GET's slice, else `op`.
        let mut ops = vec![Cow::Borrowed(op); self.shards.len()];
        let participants = match op {
            LogicalOp::Get { key } => vec![self.shard_for_key(*key)],
            LogicalOp::MultiGet { keys } => {
                // Shape violations (empty, duplicate, over-capacity) are
                // logic errors on the full input list, before any shard
                // is touched.
                cosmos_sim::KeyListDescriptor::new(keys).map_err(|e| {
                    NkvError::Config(format!("cluster batched GET on `{table}`: {e}"))
                })?;
                let mut slices = vec![Vec::new(); self.shards.len()];
                for &key in keys {
                    slices[self.shard_for_key(key)].push(key);
                }
                let participants = (0..slices.len()).filter(|&s| !slices[s].is_empty()).collect();
                for (shard_op, keys) in ops.iter_mut().zip(slices) {
                    *shard_op = Cow::Owned(LogicalOp::MultiGet { keys });
                }
                participants
            }
            LogicalOp::RangeScan { lo, hi } => self.participants(Some((*lo, *hi))),
            LogicalOp::Scan { .. } | LogicalOp::ScanAggregate { .. } => self.participants(None),
        };
        if participants.is_empty() {
            // Nothing runs, but `op` fails where one device would fail it.
            let db = &self.shards[0].db;
            db.plan(table, op, db.resolve_tier(table, op, tier)?)?;
        }
        let mut parts = Vec::with_capacity(participants.len());
        let (missing, sim_ns) = self.fanout(
            self.cfg.read_policy,
            participants,
            |shard, db| {
                let outcome = db.execute(table, &ops[shard], tier)?;
                let ns = outcome.report().sim_ns;
                Ok((outcome, ns))
            },
            |shard, outcome, _| parts.push((shard, outcome)),
        )?;
        Ok((self.merge_outcome(op, parts, sim_ns)?, missing))
    }

    /// Cluster point lookup: [`execute`](Self::execute) of a
    /// [`LogicalOp::Get`], unwrapped.
    pub fn get(&mut self, table: &str, key: u64, backend: Backend) -> NkvResult<ClusterGet> {
        let (outcome, missing_shards) = self.execute(table, &LogicalOp::Get { key }, backend)?;
        let (record, report) = outcome.into_point()?;
        Ok(ClusterGet { record, missing_shards, sim_ns: report.sim_ns })
    }

    /// Run every client's script through the cluster: each op is routed
    /// to its shard (GET/PUT by key; SCAN fans out to every shard), each
    /// shard runs its sub-scripts through its own NVMe queue engine, and
    /// the cluster span is the slowest shard's span — the devices run in
    /// parallel. With one device this is exactly [`NkvDb::run_queued`].
    ///
    /// Each shard's run is one shard call of the fan-out every fleet op
    /// takes, admission, router retry and health scoring included.
    /// Queued runs are throughput experiments, not degraded-mode reads:
    /// every shard must serve, under either read policy.
    pub fn run_queued(
        &mut self,
        table: &str,
        scripts: &[ClientScript],
        cfg: &QueueRunConfig,
    ) -> NkvResult<ClusterRunReport> {
        let n = self.shards.len();
        let mut parts: Vec<Vec<ClientScript>> =
            vec![vec![ClientScript::default(); scripts.len()]; n];
        for (client, script) in scripts.iter().enumerate() {
            // The QoS class travels with the client onto every shard.
            for part in parts.iter_mut() {
                part[client].priority = script.priority;
            }
            for qop in &script.ops {
                match qop {
                    QueuedOp::Get { key } => {
                        parts[self.shard_for_key(*key)][client].ops.push(qop.clone());
                    }
                    QueuedOp::Put { record } => {
                        parts[self.shard_for_record(record)][client].ops.push(qop.clone());
                    }
                    QueuedOp::Scan { .. } => {
                        for part in parts.iter_mut() {
                            part[client].ops.push(qop.clone());
                        }
                    }
                }
            }
        }
        let logical_ops: u64 = scripts.iter().map(|s| s.ops.len() as u64).sum();
        let mut completions = 0;
        let mut latency = LatencyHistogram::new();
        let mut shard_spans = Vec::with_capacity(n);
        let (_, span_ns) = self.fanout(
            ReadPolicy::Strict,
            0..n,
            |shard, db| {
                let report = db.run_queued(table, &parts[shard], cfg)?;
                let span = report.finished_ns.saturating_sub(report.started_ns);
                Ok((report, span))
            },
            |_, report, span| {
                completions += report.ops();
                latency.merge(&report.latency);
                shard_spans.push(span);
            },
        )?;
        Ok(ClusterRunReport { logical_ops, completions, span_ns, latency, shard_spans })
    }

    /// Merge the answering shards' outcomes, in shard order, into one
    /// outcome of `op`'s shape whose report carries only `sim_ns`.
    fn merge_outcome(
        &self,
        op: &LogicalOp,
        parts: Vec<(usize, PlanOutcome)>,
        sim_ns: SimNs,
    ) -> NkvResult<PlanOutcome> {
        let report = SimReport { sim_ns, ..SimReport::default() };
        Ok(match op {
            LogicalOp::Get { .. } => {
                let mut record = None;
                for (_, part) in parts {
                    record = part.into_point()?.0;
                }
                PlanOutcome::Point { record, report }
            }
            LogicalOp::MultiGet { keys } => {
                let mut results: MultiGetResults = keys.iter().map(|_| Ok(None)).collect();
                for (shard, part) in parts {
                    let slots = (0..keys.len()).filter(|&i| self.shard_for_key(keys[i]) == shard);
                    for (slot, r) in slots.zip(part.into_batch()?.0) {
                        results[slot] = r;
                    }
                }
                PlanOutcome::Batch { results, report }
            }
            LogicalOp::Scan { .. } | LogicalOp::RangeScan { .. } => {
                let (mut records, mut count) = (Vec::new(), 0);
                for (_, part) in parts {
                    let scan = part.into_scan()?;
                    records.extend_from_slice(&scan.records);
                    count += scan.count;
                }
                PlanOutcome::Records { records, count, report }
            }
            LogicalOp::ScanAggregate { agg, .. } => {
                let mut merged: Option<(u64, bool)> = None;
                for (_, part) in parts {
                    let (value, any, _) = part.into_aggregate()?;
                    merged =
                        Some(merged.map_or((value, any), |acc| merge_agg(*agg, acc, (value, any))));
                }
                let (value, any) = merged.unwrap_or((0, false));
                PlanOutcome::Aggregate { value, any, report }
            }
        })
    }

    /// The one fan-out every call into a shard runs through, read or
    /// write: give quarantined shards their probe tick, then visit
    /// `participants` in the given (shard-index) order. Each `call` runs
    /// under the router's retry/backoff and is scored by the shard's
    /// health FSM; a shard that is not serving, or still faults after the
    /// retry budget, either fails the operation with
    /// [`NkvError::ShardUnavailable`] or is listed as missing, per
    /// `policy` (reads pass the fleet's [`ReadPolicy`]; writes and queued
    /// runs, which have no partial mode, pass `Strict`). A logic error
    /// propagates verbatim, unscored. Every answering shard's value goes
    /// to `fold` with its time. Returns the missing shards and the
    /// operation's time: the *maximum* participant time, since the
    /// devices run in parallel. With observability on, every fan-out,
    /// writes included, records its router spans.
    fn fanout<T>(
        &mut self,
        policy: ReadPolicy,
        participants: impl IntoIterator<Item = usize>,
        mut call: impl FnMut(usize, &mut NkvDb) -> NkvResult<(T, SimNs)>,
        mut fold: impl FnMut(usize, T, SimNs),
    ) -> NkvResult<(Vec<usize>, SimNs)> {
        self.probe_quarantined();
        let mut missing = Vec::new();
        let mut waits: Vec<(usize, SimNs)> = Vec::new();
        let mut sim_ns: SimNs = 0;
        for shard in participants {
            let state = self.shards[shard].fsm.state;
            let reason = if !state.serving() {
                format!("shard is {state}")
            } else {
                let res = shard_call(
                    &mut self.shards[shard],
                    &mut self.router_retries,
                    &mut self.router_backoff_ns,
                    |db| call(shard, db),
                );
                match res {
                    Ok((value, ns)) => {
                        self.shards[shard].fsm.on_success();
                        fold(shard, value, ns);
                        waits.push((shard, ns));
                        sim_ns = sim_ns.max(ns);
                        continue;
                    }
                    Err(ShardCallError::Logic(e)) => return Err(e),
                    Err(ShardCallError::Fault(reason)) => {
                        self.shards[shard].fsm.on_error();
                        reason
                    }
                }
            };
            if policy == ReadPolicy::Strict {
                return Err(NkvError::ShardUnavailable { shard, reason });
            }
            missing.push(shard);
        }
        self.record_router_fanout(&waits);
        Ok((missing, sim_ns))
    }

    /// Which shards a fan-out visits. `range` (from RANGE_SCAN) prunes
    /// under range sharding: shard `s` owns `[start_s, end_s)` and is
    /// visited only when that interval intersects `[lo, hi)`.
    fn participants(&self, range: Option<(u64, u64)>) -> Vec<usize> {
        let n = self.shards.len();
        let (ShardStrategy::Range { boundaries }, Some((lo, hi))) = (&self.cfg.strategy, range)
        else {
            return (0..n).collect();
        };
        if lo >= hi {
            return Vec::new();
        }
        (0..n)
            .filter(|&s| {
                let start = if s == 0 { 0 } else { boundaries[s - 1] };
                let end = boundaries.get(s).copied();
                start < hi && end.is_none_or(|e| lo < e)
            })
            .collect()
    }

    /// Give every quarantined shard its probe tick. Probes go through
    /// the device admission gate — the same path real traffic takes —
    /// so a cleared fault is observed and a persisting one keeps
    /// failing, eventually tipping the shard to `Dead`.
    fn probe_quarantined(&mut self) {
        for shard in &mut self.shards {
            if shard.fsm.state == ShardState::Quarantined && shard.fsm.probe_due() {
                let ok = !matches!(
                    shard.db.platform_mut().device_op_admit(),
                    DeviceAdmission::Rejected(_)
                );
                shard.fsm.on_probe(ok);
            }
        }
    }
}

/// Merge two aggregate accumulators. Only matching sides contribute;
/// with neither matching the (meaningless) value of the first operand is
/// kept, deterministically.
fn merge_agg(agg: ndp_ir::AggOp, a: (u64, bool), b: (u64, bool)) -> (u64, bool) {
    match (a.1, b.1) {
        (true, true) => {
            let v = match agg {
                ndp_ir::AggOp::Count | ndp_ir::AggOp::Sum => a.0.wrapping_add(b.0),
                ndp_ir::AggOp::Min => a.0.min(b.0),
                ndp_ir::AggOp::Max => a.0.max(b.0),
            };
            (v, true)
        }
        (true, false) => a,
        (false, true) => b,
        (false, false) => a,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_placement_covers_every_shard_and_is_stable() {
        let cluster = NkvCluster::new(ClusterConfig::default()).unwrap();
        let mut hit = [false; 4];
        for key in 0..256u64 {
            let s = cluster.shard_for_key(key);
            assert!(s < 4);
            assert_eq!(s, cluster.shard_for_key(key), "placement must be deterministic");
            hit[s] = true;
        }
        assert!(hit.iter().all(|&h| h), "256 keys should land on all 4 shards: {hit:?}");
    }

    #[test]
    fn range_placement_follows_the_boundaries() {
        let cfg = ClusterConfig {
            devices: 3,
            strategy: ShardStrategy::Range { boundaries: vec![100, 200] },
            ..ClusterConfig::default()
        };
        let cluster = NkvCluster::new(cfg).unwrap();
        assert_eq!(cluster.shard_for_key(0), 0);
        assert_eq!(cluster.shard_for_key(99), 0);
        assert_eq!(cluster.shard_for_key(100), 1);
        assert_eq!(cluster.shard_for_key(199), 1);
        assert_eq!(cluster.shard_for_key(200), 2);
        assert_eq!(cluster.shard_for_key(u64::MAX), 2);
    }

    #[test]
    fn range_scan_prunes_non_overlapping_shards() {
        let cfg = ClusterConfig {
            devices: 3,
            strategy: ShardStrategy::Range { boundaries: vec![100, 200] },
            ..ClusterConfig::default()
        };
        let cluster = NkvCluster::new(cfg).unwrap();
        assert_eq!(cluster.participants(Some((0, 50))), vec![0]);
        assert_eq!(cluster.participants(Some((50, 150))), vec![0, 1]);
        assert_eq!(cluster.participants(Some((100, 200))), vec![1]);
        assert_eq!(cluster.participants(Some((150, 300))), vec![1, 2]);
        assert_eq!(cluster.participants(Some((500, 500))), Vec::<usize>::new());
        assert_eq!(cluster.participants(None), vec![0, 1, 2]);
    }

    #[test]
    fn config_validation_rejects_bad_shapes() {
        let bad = |cfg: ClusterConfig| {
            assert!(matches!(NkvCluster::new(cfg), Err(NkvError::Config(_))));
        };
        bad(ClusterConfig { devices: 0, ..ClusterConfig::default() });
        bad(ClusterConfig {
            devices: 3,
            strategy: ShardStrategy::Range { boundaries: vec![10] },
            ..ClusterConfig::default()
        });
        bad(ClusterConfig {
            devices: 3,
            strategy: ShardStrategy::Range { boundaries: vec![20, 10] },
            ..ClusterConfig::default()
        });
    }

    #[test]
    fn fsm_walks_the_failure_ladder_and_back() {
        let mut f = HealthFsm::new();
        assert_eq!(f.state, ShardState::Healthy);
        f.on_error();
        assert_eq!(f.state, ShardState::Degraded);
        // Sustained errors quarantine once the window has enough samples.
        for _ in 0..3 {
            f.on_error();
        }
        assert_eq!(f.state, ShardState::Quarantined);
        // Failed probes kill it.
        f.on_probe(false);
        f.on_probe(false);
        assert_eq!(f.state, ShardState::Quarantined);
        f.on_probe(false);
        assert_eq!(f.state, ShardState::Dead);
        // Only heal revives, through Recovered back to Healthy.
        f.heal();
        assert_eq!(f.state, ShardState::Recovered);
        for _ in 0..4 {
            f.on_success();
        }
        assert_eq!(f.state, ShardState::Healthy);
    }

    #[test]
    fn fsm_successful_probe_recovers_a_quarantined_shard() {
        let mut f = HealthFsm::new();
        for _ in 0..4 {
            f.on_error();
        }
        assert_eq!(f.state, ShardState::Quarantined);
        f.on_probe(true);
        assert_eq!(f.state, ShardState::Recovered);
        // The window was reset: one fresh error degrades but does not
        // immediately re-quarantine.
        f.on_error();
        assert_eq!(f.state, ShardState::Degraded);
    }

    #[test]
    fn fsm_degraded_heals_itself_after_a_run_of_successes() {
        let mut f = HealthFsm::new();
        f.on_error();
        assert_eq!(f.state, ShardState::Degraded);
        for _ in 0..3 {
            f.on_success();
        }
        assert_eq!(f.state, ShardState::Degraded);
        f.on_success();
        assert_eq!(f.state, ShardState::Healthy);
    }

    #[test]
    fn fsm_probe_cadence_respects_the_interval() {
        let mut f = HealthFsm::new();
        let due: Vec<bool> = (0..17).map(|_| f.probe_due()).collect();
        let every_8th: Vec<bool> = (1..=17).map(|op| op % 8 == 0).collect();
        assert_eq!(due, every_8th);
    }

    #[test]
    fn merge_agg_combines_per_op_semantics() {
        use ndp_ir::AggOp;
        assert_eq!(merge_agg(AggOp::Sum, (10, true), (5, true)), (15, true));
        assert_eq!(merge_agg(AggOp::Count, (2, true), (3, true)), (5, true));
        assert_eq!(merge_agg(AggOp::Min, (10, true), (5, true)), (5, true));
        assert_eq!(merge_agg(AggOp::Max, (10, true), (5, true)), (10, true));
        assert_eq!(merge_agg(AggOp::Min, (10, true), (0, false)), (10, true));
        assert_eq!(merge_agg(AggOp::Min, (0, false), (7, true)), (7, true));
        assert_eq!(merge_agg(AggOp::Sum, (0, false), (9, false)), (0, false));
    }

    #[test]
    fn shard_state_display_is_stable() {
        assert_eq!(ShardState::Healthy.to_string(), "healthy");
        assert_eq!(ShardState::Degraded.to_string(), "degraded");
        assert_eq!(ShardState::Quarantined.to_string(), "quarantined");
        assert_eq!(ShardState::Dead.to_string(), "dead");
        assert_eq!(ShardState::Recovered.to_string(), "recovered");
    }

    #[test]
    fn severity_orders_the_ladder() {
        assert!(ShardState::Healthy.severity() < ShardState::Recovered.severity());
        assert!(ShardState::Recovered.severity() < ShardState::Degraded.severity());
        assert!(ShardState::Degraded.severity() < ShardState::Quarantined.severity());
        assert!(ShardState::Quarantined.severity() < ShardState::Dead.severity());
    }
}
