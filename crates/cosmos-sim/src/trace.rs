//! Ring-buffered DES event tracing.
//!
//! When enabled, the platform records one typed span ([`TraceEvent`])
//! per interesting hardware activity — flash page reads/programs per
//! channel/LUN, DRAM AXI transfers with their contention waits, PE block
//! jobs, NVMe transfers and PE register accesses — all in *simulated*
//! time. The ring ([`TraceRing`]) is bounded: when full, the oldest
//! event is evicted and counted, so tracing a long run costs bounded
//! memory and never fails.
//!
//! Like fault injection ([`crate::faults`]), tracing follows the
//! zero-cost-when-disabled idiom: every record site is guarded by one
//! `Option` branch, and with tracing off the timing behaviour is
//! bit-for-bit the untraced model.
//!
//! [`chrome_trace_json`] exports a span list in the Chrome
//! `trace_event` JSON format (the `chrome://tracing` / Perfetto "JSON
//! array" flavor): each flash channel and each PE renders as its own
//! "process" row, LUNs and clients as threads, so a whole SCAN can be
//! opened in a trace viewer.
//!
//! [`chrome_trace_json_cluster`] is the fleet-scope variant: it merges
//! the drained rings of N devices into *one* trace by namespacing each
//! device's pids (device `i` offsets every pid by
//! [`DEVICE_PID_STRIDE`]` * i`), and interleaves the host router's
//! synthetic spans ([`RouterSpan`]: fan-out, per-shard wait, merge) on
//! their own process row, so one cluster query reads as a single flame
//! graph. The export carries a `metadata` object with the device count
//! and the total spans dropped to ring overflow — a truncated trace is
//! labelled, never silent.

use crate::dram::DramClient;
use crate::SimNs;
use std::collections::VecDeque;
use std::fmt::Write as _;

/// What a span describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// One NAND page read (tR + bus + controller DMA) on `channel`/`lun`.
    FlashRead { channel: u16, lun: u16 },
    /// One NAND page program on `channel`/`lun`.
    FlashProgram { channel: u16, lun: u16 },
    /// One transfer over the shared PS-DRAM port. `wait_ns` is the time
    /// the transfer spent waiting for the port (contention + injected
    /// stalls) before being served.
    DramTransfer { client: DramClient, bytes: u64, wait_ns: SimNs },
    /// One PE block job (START → DONE), `cycles` at the 100 MHz PL clock.
    PeJob { pe: u32, cycles: u64 },
    /// One NVMe host transfer.
    NvmeTransfer { bytes: u64 },
    /// A batch of PE control-register accesses (PS↔PL round trips).
    RegAccess { pe: u32, writes: u64, reads: u64 },
    /// NVMe command admission on queue pair `qid`: SQ doorbell write
    /// plus the controller's 64 B SQE fetch, for command id `cid`.
    QueueSubmit { qid: u16, cid: u16 },
    /// NVMe completion posting on queue pair `qid`: 16 B CQE DMA plus
    /// the host's CQ-head doorbell acknowledgement, for command `cid`.
    QueueComplete { qid: u16, cid: u16 },
    /// A DRAM block-cache hit: `bytes` of SST `sst_id` (block index
    /// `block`; `u64::MAX` marks the index page) served from DRAM
    /// instead of flash. The busy time of the burst itself is the
    /// accompanying `DramTransfer` span with the `CacheHit` client.
    CacheHit { sst_id: u64, block: u64, bytes: u64 },
}

/// One timed span in simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    pub kind: TraceKind,
    /// Span start, simulated nanoseconds.
    pub start: SimNs,
    /// Span duration, simulated nanoseconds.
    pub dur: SimNs,
}

/// A bounded ring of trace events.
#[derive(Debug, Clone, Default)]
pub struct TraceRing {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl TraceRing {
    /// An empty ring holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace ring capacity must be positive");
        Self { events: VecDeque::with_capacity(capacity.min(4096)), capacity, dropped: 0 }
    }

    /// Record one span, evicting the oldest if the ring is full.
    pub fn record(&mut self, ev: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted because the ring was full.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Remove and return all buffered events (oldest first). The
    /// dropped counter is preserved.
    pub(crate) fn drain(&mut self) -> Vec<TraceEvent> {
        self.events.drain(..).collect()
    }
}

fn client_name(c: DramClient) -> &'static str {
    match c {
        DramClient::FlashDma => "flash_dma",
        DramClient::PeLoad => "pe_load",
        DramClient::PeStore => "pe_store",
        DramClient::Cpu => "cpu",
        DramClient::Host => "host",
        DramClient::CacheHit => "cache_hit",
    }
}

/// Stable process-ID layout of the Chrome export: one "process" per
/// flash channel and per PE, one for the DRAM port, one for NVMe data
/// transfers, and one per NVMe queue pair (submissions and completions
/// on separate threads).
fn pid_tid(kind: &TraceKind) -> (u64, u64) {
    match kind {
        TraceKind::FlashRead { channel, lun } | TraceKind::FlashProgram { channel, lun } => {
            (100 + u64::from(*channel), 1 + u64::from(*lun))
        }
        TraceKind::DramTransfer { client, .. } => (200, 1 + *client as u64),
        TraceKind::PeJob { pe, .. } => (300 + u64::from(*pe), 1),
        TraceKind::RegAccess { pe, .. } => (300 + u64::from(*pe), 2),
        TraceKind::NvmeTransfer { .. } => (400, 1),
        TraceKind::QueueSubmit { qid, .. } => (500 + u64::from(*qid), 1),
        TraceKind::QueueComplete { qid, .. } => (500 + u64::from(*qid), 2),
        TraceKind::CacheHit { .. } => (600, 1),
    }
}

fn name_cat_args(kind: &TraceKind) -> (&'static str, &'static str, String) {
    match kind {
        TraceKind::FlashRead { channel, lun } => {
            ("flash_read", "flash", format!("\"channel\":{channel},\"lun\":{lun}"))
        }
        TraceKind::FlashProgram { channel, lun } => {
            ("flash_program", "flash", format!("\"channel\":{channel},\"lun\":{lun}"))
        }
        TraceKind::DramTransfer { client, bytes, wait_ns } => (
            "dram_transfer",
            "dram",
            format!(
                "\"client\":\"{}\",\"bytes\":{bytes},\"wait_ns\":{wait_ns}",
                client_name(*client)
            ),
        ),
        TraceKind::PeJob { pe, cycles } => {
            ("pe_job", "pe", format!("\"pe\":{pe},\"cycles\":{cycles}"))
        }
        TraceKind::NvmeTransfer { bytes } => {
            ("nvme_transfer", "nvme", format!("\"bytes\":{bytes}"))
        }
        TraceKind::RegAccess { pe, writes, reads } => {
            ("reg_access", "mmio", format!("\"pe\":{pe},\"writes\":{writes},\"reads\":{reads}"))
        }
        TraceKind::QueueSubmit { qid, cid } => {
            ("queue_submit", "queue", format!("\"qid\":{qid},\"cid\":{cid}"))
        }
        TraceKind::QueueComplete { qid, cid } => {
            ("queue_complete", "queue", format!("\"qid\":{qid},\"cid\":{cid}"))
        }
        TraceKind::CacheHit { sst_id, block, bytes } => {
            ("cache_hit", "cache", format!("\"sst\":{sst_id},\"block\":{block},\"bytes\":{bytes}"))
        }
    }
}

/// Write one device span as a Chrome complete event, with every pid
/// shifted by `pid_offset` (0 keeps the single-device layout).
fn write_event(out: &mut String, ev: &TraceEvent, pid_offset: u64) {
    let (name, cat, args) = name_cat_args(&ev.kind);
    let (pid, tid) = pid_tid(&ev.kind);
    let _ = write!(
        out,
        "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\
         \"ts\":{ts:.3},\"dur\":{dur:.3},\"pid\":{pid},\"tid\":{tid},\
         \"args\":{{{args}}}}}",
        ts = ev.start as f64 / 1000.0,
        dur = ev.dur as f64 / 1000.0,
        pid = pid + pid_offset,
    );
}

/// Render spans as Chrome `trace_event` JSON (complete events, `ph:"X"`,
/// timestamps in microseconds of simulated time). Field order is stable;
/// events render in the order given.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 128 + 64);
    out.push_str("{\"traceEvents\":[");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_event(&mut out, ev, 0);
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}");
    out
}

/// Pid distance between the namespaces of adjacent devices in a merged
/// cluster trace: device `i`'s spans render with `pid + 1000 * i`, so
/// device 0 keeps the documented single-device layout exactly.
pub const DEVICE_PID_STRIDE: u64 = 1000;

/// Process id of the host-side router row in a merged cluster trace.
/// Chosen inside device 0's namespace but clear of every span pid the
/// device model emits (100–699).
pub const ROUTER_PID: u64 = 900;

/// What a synthetic host-router span describes. These are not measured
/// device activity: the router runs host-side and charges no simulated
/// device time of its own, but rendering its fan-out/wait/merge
/// structure makes a cluster query read as one flame graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterSpanKind {
    /// The router dispatched one logical operation to `shards` shards.
    FanOut { shards: u32 },
    /// The router waited on shard `shard` for its part of the fan-out.
    ShardWait { shard: u32 },
    /// The router merged `shards` shard results into the reply.
    Merge { shards: u32 },
}

/// One synthetic router span on the cluster trace's router row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterSpan {
    pub kind: RouterSpanKind,
    /// Span start on the router's virtual timeline, simulated ns.
    pub start: SimNs,
    /// Span duration, simulated ns.
    pub dur: SimNs,
}

/// One device's contribution to a merged cluster trace: its drained
/// spans plus the ring-overflow count at drain time.
#[derive(Debug, Clone, Default)]
pub struct DeviceTrace {
    /// Device (shard) index; decides the pid namespace.
    pub device: u32,
    /// Drained spans, device-local simulated time.
    pub events: Vec<TraceEvent>,
    /// Spans this device evicted to ring overflow before the drain.
    pub dropped_spans: u64,
}

fn write_router_span(out: &mut String, span: &RouterSpan) {
    let (name, tid, args) = match span.kind {
        RouterSpanKind::FanOut { shards } => ("router_fanout", 1, format!("\"shards\":{shards}")),
        RouterSpanKind::Merge { shards } => ("router_merge", 2, format!("\"shards\":{shards}")),
        RouterSpanKind::ShardWait { shard } => {
            ("router_shard_wait", 10 + u64::from(shard), format!("\"shard\":{shard}"))
        }
    };
    let _ = write!(
        out,
        "{{\"name\":\"{name}\",\"cat\":\"router\",\"ph\":\"X\",\
         \"ts\":{ts:.3},\"dur\":{dur:.3},\"pid\":{ROUTER_PID},\"tid\":{tid},\
         \"args\":{{{args}}}}}",
        ts = span.start as f64 / 1000.0,
        dur = span.dur as f64 / 1000.0,
    );
}

/// Render a merged multi-device trace: every device's spans with its
/// pid namespace ([`DEVICE_PID_STRIDE`]` * device`), the router's
/// synthetic spans on pid [`ROUTER_PID`], and a `metadata` object
/// carrying the device count and the total ring-overflow drops (so a
/// truncated trace is visibly labelled). Field order is stable.
pub fn chrome_trace_json_cluster(devices: &[DeviceTrace], router: &[RouterSpan]) -> String {
    let total: usize = devices.iter().map(|d| d.events.len()).sum::<usize>() + router.len();
    let mut out = String::with_capacity(total * 128 + 128);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    for dev in devices {
        let offset = DEVICE_PID_STRIDE * u64::from(dev.device);
        for ev in &dev.events {
            if !first {
                out.push(',');
            }
            first = false;
            write_event(&mut out, ev, offset);
        }
    }
    for span in router {
        if !first {
            out.push(',');
        }
        first = false;
        write_router_span(&mut out, span);
    }
    let dropped: u64 = devices.iter().map(|d| d.dropped_spans).sum();
    let _ = write!(
        out,
        "],\"metadata\":{{\"devices\":{},\"dropped_spans\":{dropped}}},\
         \"displayTimeUnit\":\"ns\"}}",
        devices.len(),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut r = TraceRing::new(2);
        for i in 0..5u64 {
            r.record(TraceEvent { kind: TraceKind::NvmeTransfer { bytes: i }, start: i, dur: 1 });
        }
        assert_eq!(r.len(), 2);
        assert_eq!(r.dropped(), 3);
        let evs = r.drain();
        assert_eq!(evs[0].start, 3);
        assert_eq!(evs[1].start, 4);
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 3, "drain preserves the dropped count");
    }

    #[test]
    fn chrome_json_field_order_is_stable() {
        let evs = [
            TraceEvent {
                kind: TraceKind::FlashRead { channel: 2, lun: 1 },
                start: 1500,
                dur: 70_000,
            },
            TraceEvent {
                kind: TraceKind::DramTransfer {
                    client: DramClient::PeLoad,
                    bytes: 4096,
                    wait_ns: 250,
                },
                start: 72_000,
                dur: 4_346,
            },
        ];
        let json = chrome_trace_json(&evs);
        assert_eq!(
            json,
            "{\"traceEvents\":[\
             {\"name\":\"flash_read\",\"cat\":\"flash\",\"ph\":\"X\",\
             \"ts\":1.500,\"dur\":70.000,\"pid\":102,\"tid\":2,\
             \"args\":{\"channel\":2,\"lun\":1}},\
             {\"name\":\"dram_transfer\",\"cat\":\"dram\",\"ph\":\"X\",\
             \"ts\":72.000,\"dur\":4.346,\"pid\":200,\"tid\":2,\
             \"args\":{\"client\":\"pe_load\",\"bytes\":4096,\"wait_ns\":250}}\
             ],\"displayTimeUnit\":\"ns\"}"
        );
    }

    #[test]
    fn every_kind_renders_with_its_own_process() {
        let kinds = [
            TraceKind::FlashRead { channel: 0, lun: 0 },
            TraceKind::FlashProgram { channel: 7, lun: 3 },
            TraceKind::DramTransfer { client: DramClient::Host, bytes: 1, wait_ns: 0 },
            TraceKind::PeJob { pe: 4, cycles: 99 },
            TraceKind::NvmeTransfer { bytes: 80 },
            TraceKind::RegAccess { pe: 4, writes: 7, reads: 2 },
            TraceKind::QueueSubmit { qid: 3, cid: 17 },
            TraceKind::QueueComplete { qid: 3, cid: 17 },
            TraceKind::CacheHit { sst_id: 5, block: 2, bytes: 32_768 },
        ];
        let evs: Vec<TraceEvent> =
            kinds.iter().map(|&kind| TraceEvent { kind, start: 0, dur: 1 }).collect();
        let json = chrome_trace_json(&evs);
        for frag in [
            "\"pid\":100,",
            "\"pid\":107,",
            "\"pid\":200,",
            "\"pid\":304,",
            "\"pid\":400,",
            "\"pid\":503,",
            "\"pid\":600,",
        ] {
            assert!(json.contains(frag), "{frag} missing in {json}");
        }
        // PE job and its register accesses share a process, on separate
        // threads.
        assert!(json.contains("\"name\":\"pe_job\",\"cat\":\"pe\",\"ph\":\"X\",\"ts\":0.000,\"dur\":0.001,\"pid\":304,\"tid\":1"));
        assert!(json.contains("\"name\":\"reg_access\",\"cat\":\"mmio\",\"ph\":\"X\",\"ts\":0.000,\"dur\":0.001,\"pid\":304,\"tid\":2"));
        // A queue pair is one process: submissions on tid 1,
        // completions on tid 2.
        assert!(json.contains("\"name\":\"queue_submit\",\"cat\":\"queue\",\"ph\":\"X\",\"ts\":0.000,\"dur\":0.001,\"pid\":503,\"tid\":1"));
        assert!(json.contains("\"name\":\"queue_complete\",\"cat\":\"queue\",\"ph\":\"X\",\"ts\":0.000,\"dur\":0.001,\"pid\":503,\"tid\":2"));
        assert!(json.contains("\"args\":{\"qid\":3,\"cid\":17}"));
    }

    #[test]
    fn cluster_export_namespaces_pids_per_device() {
        let ev = |ch: u16, start: SimNs| TraceEvent {
            kind: TraceKind::FlashRead { channel: ch, lun: 0 },
            start,
            dur: 70_000,
        };
        let devices = [
            DeviceTrace { device: 0, events: vec![ev(2, 0)], dropped_spans: 0 },
            DeviceTrace { device: 1, events: vec![ev(2, 100)], dropped_spans: 3 },
            DeviceTrace { device: 3, events: vec![ev(0, 200)], dropped_spans: 0 },
        ];
        let json = chrome_trace_json_cluster(&devices, &[]);
        // Device 0 keeps the single-device layout; devices 1 and 3 shift
        // by the stride.
        assert!(json.contains("\"pid\":102,"), "{json}");
        assert!(json.contains("\"pid\":1102,"), "{json}");
        assert!(json.contains("\"pid\":3100,"), "{json}");
        assert!(
            json.contains("\"metadata\":{\"devices\":3,\"dropped_spans\":3}"),
            "overflow must be labelled in the export: {json}"
        );
        assert!(json.ends_with("\"displayTimeUnit\":\"ns\"}"), "{json}");
    }

    #[test]
    fn cluster_export_renders_router_spans_on_their_own_process() {
        let router = [
            RouterSpan { kind: RouterSpanKind::FanOut { shards: 4 }, start: 0, dur: 1_000 },
            RouterSpan { kind: RouterSpanKind::ShardWait { shard: 2 }, start: 1_000, dur: 50_000 },
            RouterSpan { kind: RouterSpanKind::Merge { shards: 4 }, start: 51_000, dur: 1_000 },
        ];
        let json = chrome_trace_json_cluster(&[], &router);
        assert!(
            json.contains(
                "{\"name\":\"router_fanout\",\"cat\":\"router\",\"ph\":\"X\",\
                 \"ts\":0.000,\"dur\":1.000,\"pid\":900,\"tid\":1,\"args\":{\"shards\":4}}"
            ),
            "{json}"
        );
        assert!(
            json.contains("\"name\":\"router_shard_wait\"") && json.contains("\"tid\":12,"),
            "shard 2's wait renders on tid 12: {json}"
        );
        assert!(
            json.contains("\"name\":\"router_merge\"") && json.contains("\"tid\":2,"),
            "{json}"
        );
        assert!(json.contains("\"metadata\":{\"devices\":0,\"dropped_spans\":0}"), "{json}");
    }

    #[test]
    fn cluster_export_with_one_unshifted_device_matches_single_device_events() {
        let evs = vec![
            TraceEvent { kind: TraceKind::NvmeTransfer { bytes: 80 }, start: 10, dur: 67 },
            TraceEvent { kind: TraceKind::PeJob { pe: 1, cycles: 9 }, start: 80, dur: 90 },
        ];
        let single = chrome_trace_json(&evs);
        let cluster = chrome_trace_json_cluster(
            &[DeviceTrace { device: 0, events: evs, dropped_spans: 0 }],
            &[],
        );
        // Same events section; the cluster export only appends metadata.
        let body = single.strip_suffix("],\"displayTimeUnit\":\"ns\"}").unwrap();
        assert!(cluster.starts_with(body), "single {single} vs cluster {cluster}");
    }
}
