//! `queued_mixed`: closed-loop multi-client load through the NVMe queue
//! engine.
//!
//! `papers` at scale 1/64. 8 clients x depth 8 (callers wait for replies:
//! a client submits its next command only when one of its 8 outstanding
//! ones completes — that is what `NkvDb::run_queued` implements). Each
//! client issues a seeded script of 90 % GET / 8 % PUT / 2 % selective
//! SCAN — the mix of `loadgen::client_script`, regenerated here. PUTs
//! re-write the generator's own record, so read values are invariant.
//! The same scripts then go through a 4-device hash-sharded
//! `NkvCluster::run_queued` (the `fleet4` phase).
//!
//! Exercises what serial calls cannot: SQ/CQ admission, the DES servers'
//! backfill mode, the dispatch heap, histogram recording, flush and
//! compaction interleaved with reads, and the router. Contention, not
//! kernels, sets its numbers.

use crate::adapter::{
    self, ClientScript, Composition, Device, DeviceSpec, Fleet, OpKind, PaperGen, QueuedOp,
    SplitMix64,
};
use crate::digest::{fnv1a, Fnv};
use crate::harness::{ChunkOut, Workload};
use crate::span::Tracer;
use crate::stats::exact_percentile;
use std::time::Instant;

const CLIENTS: u32 = 8;
const DEPTH: u32 = 8;
const FLEET_DEVICES: usize = 4;
/// Keys read back from the fleet after each run (it returns no payloads).
const FLEET_PROBES: u64 = 64;

pub struct QueuedMixed {
    seed: u64,
    scale: f64,
    ops_per_client: u32,
}

impl QueuedMixed {
    pub fn new(seed: u64, quick: bool) -> Self {
        Self {
            seed,
            scale: if quick { 1.0 / 512.0 } else { 1.0 / 64.0 },
            ops_per_client: if quick { 100 } else { 200 },
        }
    }
}

pub struct State {
    dev: Device,
    fleet: Fleet,
    scripts: Vec<ClientScript>,
    /// Records the selective SCAN must return (PUTs never change values).
    scan_matches: u64,
    puts: u64,
}

/// One client's script: exactly 90 % GET, 8 % PUT (re-writes of existing
/// papers) and 2 % selective SCAN, in a seeded order over seeded keys.
/// Exact shares, not sampled ones: a SCAN costs as much as a hundred
/// GETs, so a seed that happened to draw a few more of them would be a
/// different amount of work.
fn client_script(cfg: &adapter::PubGraphConfig, seed: u64, client: u32, ops: u32) -> ClientScript {
    let mut rng = SplitMix64::for_record(seed, 0x10ad + u64::from(client), 0);
    let mut rolls: Vec<u32> = (0..ops).map(|i| i * 100 / ops.max(1)).collect();
    for k in (1..rolls.len()).rev() {
        rolls.swap(k, rng.gen_usize(k + 1));
    }
    let mut script = ClientScript::default();
    for roll in rolls {
        let paper = PaperGen::paper_at(cfg, rng.gen_u64(cfg.papers));
        script.ops.push(if roll < 90 {
            QueuedOp::Get { key: paper.id }
        } else if roll < 98 {
            QueuedOp::Put { record: adapter::encode_paper(&paper) }
        } else {
            QueuedOp::Scan { rules: adapter::mixed_scan_rules() }
        });
    }
    script
}

/// Exact percentile in microseconds, or 0 with a note when the sample
/// cannot support it.
fn pct_us(sorted: &[u64], q: f64, what: &str, notes: &mut Vec<String>) -> f64 {
    match exact_percentile(sorted, q) {
        Some(ns) => ns as f64 / 1e3,
        None => {
            notes.push(format!(
                "{what} p{} refused: n = {} leaves fewer than ten samples beyond it",
                q * 100.0,
                sorted.len()
            ));
            0.0
        }
    }
}

impl Workload for QueuedMixed {
    type State = State;

    fn setup(&self) -> Result<State, String> {
        let cfg = adapter::dataset_config(self.scale, self.seed);
        let dev = adapter::build_device(&DeviceSpec {
            composition: Composition::Ours,
            cfg,
            load_refs: false,
            papers_c1_limit: Some(12),
            skip_every: None,
        })
        .map_err(|e| e.to_string())?;
        let fleet = adapter::build_fleet(cfg, FLEET_DEVICES).map_err(|e| e.to_string())?;
        let scripts: Vec<ClientScript> =
            (0..CLIENTS).map(|c| client_script(&cfg, self.seed, c, self.ops_per_client)).collect();
        let rules = adapter::mixed_scan_rules();
        let scan_matches =
            PaperGen::new(cfg).filter(|p| adapter::paper_matches(p, &rules)).count() as u64;
        let puts = scripts
            .iter()
            .flat_map(|s| &s.ops)
            .filter(|op| matches!(op, QueuedOp::Put { .. }))
            .count() as u64;
        Ok(State { dev, fleet, scripts, scan_matches, puts })
    }

    fn observe(&self, st: &mut State) {
        adapter::enable_observability(&mut st.dev);
        adapter::fleet_enable_observability(&mut st.fleet);
    }

    fn setup_values(&self, st: &State) -> Vec<(&'static str, f64)> {
        vec![("nkv.bulk_load_mb_per_s", st.dev.load.mb_per_s())]
    }

    fn chunk(&self, st: &mut State, tr: &mut Tracer, detail: bool) -> ChunkOut {
        let mut out = ChunkOut::default();
        let logical: u64 = st.scripts.iter().map(|s| s.ops.len() as u64).sum();
        let flash0 = adapter::flash_counters(&mut st.dev);
        let stats0 = detail.then(|| adapter::device_stats(&st.dev));

        tr.next_request();
        let t = Instant::now();
        let single = adapter::run_queued(&mut st.dev, tr, &st.scripts, DEPTH);
        let single_ns = t.elapsed().as_nanos() as u64;
        tr.next_request();
        let t = Instant::now();
        let fleet = adapter::fleet_run_queued(&mut st.fleet, tr, &st.scripts, DEPTH);
        let fleet_ns = t.elapsed().as_nanos() as u64;
        let flash1 = adapter::flash_counters(&mut st.dev);
        let stats1 = detail.then(|| adapter::device_stats(&st.dev));
        let fleet_stats = detail.then(|| adapter::fleet_stats(&st.fleet));
        adapter::discard_device_trace(&mut st.dev);
        adapter::fleet_discard_trace(&mut st.fleet);

        out.ops = logical * 2;
        out.host_ns = single_ns + fleet_ns;
        let (single, fleet) = match (single, fleet) {
            (Ok(s), Ok(f)) => (s, f),
            (s, f) => {
                for e in [s.err(), f.err()].into_iter().flatten() {
                    out.notes.push(format!("FAILED: queued run error: {e}"));
                }
                out.failed = out.ops;
                return out;
            }
        };

        // Verify the single device command by command.
        let mut digest = Fnv::new();
        let mut wrong = logical.saturating_sub(single.completions.len() as u64);
        let tuple = adapter::PAPER_BYTES as u64;
        for c in &single.completions {
            let op = st.scripts.get(c.client as usize).and_then(|s| s.ops.get(c.seq as usize));
            let ok = match op {
                Some(QueuedOp::Get { key }) => {
                    c.payload == adapter::encode_paper(&PaperGen::paper_at(&st.dev.cfg, key - 1))
                }
                Some(QueuedOp::Put { .. }) => c.kind == OpKind::Put,
                Some(QueuedOp::Scan { .. }) => c.payload.len() as u64 == st.scan_matches * tuple,
                None => false,
            };
            wrong += u64::from(!ok);
            digest
                .u64(u64::from(c.client))
                .u64(u64::from(c.seq))
                .u64(c.submit_ns)
                .u64(c.fetch_ns)
                .u64(c.exec_done_ns)
                .u64(c.complete_ns)
                .u64(c.result_bytes)
                .u64(fnv1a(&c.payload));
        }
        // The fleet reports counts only: check them, then read a sample
        // of keys back through the router.
        wrong += u64::from(fleet.logical_ops != logical || fleet.completions < logical);
        let mut rng = SplitMix64::new(self.seed ^ 0x0066_6c65_6574);
        for _ in 0..FLEET_PROBES {
            let p = PaperGen::paper_at(&st.fleet.cfg, rng.gen_u64(st.fleet.cfg.papers));
            let got = adapter::fleet_get(&mut st.fleet, p.id);
            wrong += u64::from(!matches!(got, Ok(Some(ref r)) if *r == adapter::encode_paper(&p)));
        }
        out.failed = wrong.min(out.ops);

        let single_span = single.finished_ns - single.started_ns;
        out.sim_ns = single_span + fleet.span_ns;
        digest.u64(single_span).u64(fleet.span_ns).u64(fleet.completions);
        for &s in &fleet.shard_spans {
            digest.u64(s);
        }
        out.digest = digest.finish();

        if detail {
            let latencies = |kind: OpKind| {
                let mut v: Vec<u64> = single
                    .completions
                    .iter()
                    .filter(|c| c.kind == kind)
                    .map(|c| c.complete_ns - c.submit_ns)
                    .collect();
                v.sort_unstable();
                v
            };
            let (gets, puts, scans) =
                (latencies(OpKind::Get), latencies(OpKind::Put), latencies(OpKind::Scan));
            let mut notes = Vec::new();
            let sim_ops = logical as f64 / (single_span as f64 / 1e9);
            let fleet_ops = logical as f64 / (fleet.span_ns as f64 / 1e9);
            out.values = vec![
                ("sim_ops_per_s", sim_ops),
                ("sim_fleet_ops_per_s", fleet_ops),
                ("sim_get_p99_us", pct_us(&gets, 0.99, "GET", &mut notes)),
                ("nkv.get_p50_sim_us", pct_us(&gets, 0.50, "GET", &mut notes)),
                ("nkv.get_p90_sim_us", pct_us(&gets, 0.90, "GET", &mut notes)),
                ("nkv.put_p90_sim_us", pct_us(&puts, 0.90, "PUT", &mut notes)),
                ("nkv.scan_p50_sim_us", pct_us(&scans, 0.50, "SCAN", &mut notes)),
                ("sim.queue_full_stalls", single.queue.full_stalls as f64),
                ("sim.queue_max_inflight", single.queue.max_inflight as f64),
                ("sim.flash_reads", (flash1.reads - flash0.reads) as f64),
                ("sim.flash_programs", (flash1.programs - flash0.programs) as f64),
                ("sim.flash_busy_ns", (flash1.busy_ns - flash0.busy_ns) as f64),
                ("run_queued.ops_per_call", logical as f64),
            ];
            if let (Some(s0), Some(s1), Some(fs)) = (stats0, stats1, fleet_stats) {
                let count = |k: OpKind| (s1.metrics.op(k).ops - s0.metrics.op(k).ops) as f64;
                let comp_ns = s1.metrics.op(OpKind::Compaction).hist.sum()
                    - s0.metrics.op(OpKind::Compaction).hist.sum();
                out.values.extend([
                    ("nkv.flush_count", count(OpKind::Flush)),
                    ("nkv.compaction_count", count(OpKind::Compaction)),
                    ("nkv.compaction_sim_ms", comp_ns as f64 / 1e6),
                    ("nkv.fleet_busy_skew", fs.busy_skew),
                    ("sim.dropped_spans", (s1.dropped_spans + fs.dropped_spans) as f64),
                    ("nkv.retries", (s1.health.read_retries + fs.router_retries) as f64),
                    (
                        "nkv.degradations",
                        (s1.health.sw_fallback_blocks + s1.health.watchdog_trips) as f64,
                    ),
                ]);
            }
            let reads = (flash1.reads - flash0.reads) as f64;
            let programs = (flash1.programs - flash0.programs) as f64;
            // The fleet does the same work again on four devices.
            out.calls = vec![
                ("sim.queue_submit_ns", out.ops as f64),
                ("nkv.hist_record_ns", out.ops as f64),
                ("nkv.plan_lower_ns", out.ops as f64),
                ("nkv.memtable_put_ns", st.puts as f64 * 2.0),
                ("sim.flash_read_page_ns", reads * 2.0),
                ("sim.flash_program_page_ns", programs * 2.0),
                (
                    "pe.oracle_block_us",
                    reads * 2.0 * flash0.page_bytes as f64 / adapter::BLOCK_BYTES as f64,
                ),
                ("nkv.crc32c_mb_per_s", (reads + programs) * 2.0 * flash0.page_bytes as f64),
                // Per page read: LUN, channel bus, controller DMA.
                ("sim.server_backfill_ns", reads * 2.0 * 3.0),
            ];
            notes.push(format!(
                "closed loop: {CLIENTS} clients x depth {DEPTH}, {} ops each = {logical} commands \
                 per device phase (single device, then fleet of {FLEET_DEVICES}); \
                 n = {} GET / {} PUT / {} SCAN latency samples, percentiles exact \
                 (sorted complete_ns - submit_ns)",
                self.ops_per_client,
                gets.len(),
                puts.len(),
                scans.len()
            ));
            notes.push(format!(
                "simulated ops/s: single {sim_ops:.1}, fleet{FLEET_DEVICES} {fleet_ops:.1}; \
                 host s: single {:.3}, fleet {:.3}",
                single_ns as f64 / 1e9,
                fleet_ns as f64 / 1e9
            ));
            out.notes = notes;
        }
        out
    }
}
