//! `scan_bulk`: the paper's Fig. 7b.
//!
//! The "ours" composition (1 paper-PE + 7 ref-PEs, updated firmware)
//! bulk-loaded at scale 1/8 (≈138 MB, ≈4.2k 32 KiB blocks). One chunk is
//! the full predicate SCAN of `papers` (`year >= 2019`) plus `refs`
//! (`year = 1980`), three times: Hardware, Software, and Hardware with 4
//! parallel PE job streams on `refs`.
//!
//! The flash/DRAM DES, the `ndp-pe` block filter, CRC and `nkv::engine`'s
//! scan merge/staging do almost all the work; index walk, bloom, queue
//! engine, router and generator do none.

use crate::adapter::{self, Backend, Composition, Device, DeviceSpec, Scan};
use crate::digest::{fnv1a, Fnv};
use crate::harness::{ChunkOut, Workload};
use crate::span::Tracer;
use std::time::Instant;

/// Fig. 7b as printed in the paper: seconds for the full dataset.
const PAPER_OURS_HW_S: f64 = 5.530;
const PAPER_BASE_HW_S: f64 = 5.512;

pub struct ScanBulk {
    seed: u64,
    scale: f64,
    /// Also build the \[1\] composition once to check its Fig. 7b number
    /// (traced runs only: it doubles the set-up).
    check_baseline: bool,
}

impl ScanBulk {
    pub fn new(seed: u64, quick: bool, trace: bool) -> Self {
        Self { seed, scale: if quick { 1.0 / 512.0 } else { 1.0 / 8.0 }, check_baseline: trace }
    }

    fn spec(&self, composition: Composition) -> DeviceSpec {
        DeviceSpec {
            composition,
            cfg: adapter::dataset_config(self.scale, self.seed),
            load_refs: true,
            papers_c1_limit: Some(12),
            skip_every: None,
        }
    }
}

pub struct State {
    dev: Device,
    /// Fig. 7b error of the "ours" composition, from the first chunk.
    ours_err_pct: f64,
}

struct Pair {
    papers: Scan,
    refs: Scan,
    host_ns: u64,
}

impl Pair {
    fn sim_ns(&self) -> u64 {
        self.papers.report.sim_ns + self.refs.report.sim_ns
    }
    fn blocks(&self) -> u64 {
        self.papers.report.blocks + self.refs.report.blocks
    }
    fn bytes(&self) -> u64 {
        self.papers.report.bytes_scanned + self.refs.report.bytes_scanned
    }
}

fn scan_pair(
    dev: &mut Device,
    tr: &mut Tracer,
    span: &'static str,
    backend: Backend,
) -> Result<Pair, String> {
    tr.next_request();
    let t = Instant::now();
    let papers =
        adapter::scan(dev, tr, span, adapter::PAPERS, &adapter::paper_scan_rules(), backend);
    let refs = adapter::scan(dev, tr, span, adapter::REFS, &adapter::ref_scan_rules(), backend);
    let host_ns = t.elapsed().as_nanos() as u64;
    Ok(Pair {
        papers: papers.map_err(|e| e.to_string())?,
        refs: refs.map_err(|e| e.to_string())?,
        host_ns,
    })
}

fn hash_scan(d: &mut Fnv, s: &Scan) {
    d.report(&s.report).u64(s.count).u64(fnv1a(&s.records));
}

impl Workload for ScanBulk {
    type State = State;

    fn setup(&self) -> Result<State, String> {
        let dev =
            adapter::build_device(&self.spec(Composition::Ours)).map_err(|e| e.to_string())?;
        Ok(State { dev, ours_err_pct: 0.0 })
    }

    fn observe(&self, st: &mut State) {
        adapter::enable_observability(&mut st.dev);
    }

    fn setup_values(&self, st: &State) -> Vec<(&'static str, f64)> {
        vec![("nkv.bulk_load_mb_per_s", st.dev.load.mb_per_s())]
    }

    fn chunk(&self, st: &mut State, tr: &mut Tracer, detail: bool) -> ChunkOut {
        let dev = &mut st.dev;
        let mut out = ChunkOut::default();
        let stats0 = detail.then(|| adapter::device_stats(dev));
        let flash0 = adapter::flash_counters(dev);

        let hw = scan_pair(dev, tr, "nkv.scan.hw", Backend::Hardware);
        // Snapshots bracketing the HW pair: its flash occupancy is the
        // controller-DMA busy time over simulated time x controllers.
        let flash_hw = adapter::flash_counters(dev);
        let stats_hw = detail.then(|| adapter::device_stats(dev));
        let sw = scan_pair(dev, tr, "nkv.scan.sw", Backend::Software);
        let _ = adapter::set_parallel_pes(dev, adapter::REFS, 4);
        let par4 = scan_pair(dev, tr, "nkv.scan.par4", Backend::Hardware);
        let par4_blocks = adapter::parallel_scan_blocks(dev, adapter::REFS);
        let _ = adapter::set_parallel_pes(dev, adapter::REFS, 0);
        let flash1 = adapter::flash_counters(dev);
        adapter::discard_device_trace(dev);

        let (hw, sw, par4) = match (hw, sw, par4) {
            (Ok(a), Ok(b), Ok(c)) => (a, b, c),
            (a, b, c) => {
                // A typed error on any scan fails the whole chunk.
                for e in [a.err(), b.err(), c.err()].into_iter().flatten() {
                    out.notes.push(format!("FAILED: scan error: {e}"));
                }
                out.ops = 1;
                out.failed = 1;
                return out;
            }
        };
        let pairs = [&hw, &sw, &par4];
        out.host_ns = pairs.iter().map(|p| p.host_ns).sum();
        out.ops = pairs.iter().map(|p| p.blocks()).sum();
        out.sim_ns = pairs.iter().map(|p| p.sim_ns()).sum();

        // Verify: counts equal the generator stream's, and all three
        // execution modes return identical bytes.
        let mut bad = 0u64;
        for p in pairs {
            bad += u64::from(p.papers.count != dev.load.paper_matches);
            bad += u64::from(p.refs.count != dev.load.ref_matches);
            bad += u64::from(p.papers.records != hw.papers.records);
            bad += u64::from(p.refs.records != hw.refs.records);
        }
        if bad > 0 {
            out.notes.push(format!(
                "FAILED: {bad} scan checks (expected {} papers / {} refs)",
                dev.load.paper_matches, dev.load.ref_matches
            ));
        }
        out.failed = bad;

        let mut d = Fnv::new();
        for p in pairs {
            hash_scan(&mut d, &p.papers);
            hash_scan(&mut d, &p.refs);
        }
        out.digest = d.finish();

        if let (Some(stats0), Some(stats_hw)) = (stats0, stats_hw) {
            let hw_s = hw.sim_ns() as f64 / 1e9;
            let err_ours = (hw_s / self.scale - PAPER_OURS_HW_S).abs() / PAPER_OURS_HW_S * 100.0;
            let occupancy = (flash_hw.busy_ns - flash0.busy_ns) as f64
                / (hw.sim_ns() * flash0.controllers) as f64;
            let scan_bd = {
                let (a, b) = (
                    stats_hw.metrics.op(adapter::OpKind::Scan).breakdown,
                    stats0.metrics.op(adapter::OpKind::Scan).breakdown,
                );
                [
                    ("nkv.scan.cfg_ns", a.cfg_ns - b.cfg_ns),
                    ("nkv.scan.flash_ns", a.flash_ns - b.flash_ns),
                    ("nkv.scan.dram_ns", a.dram_ns - b.dram_ns),
                    ("nkv.scan.pe_ns", a.pe_ns - b.pe_ns),
                    ("nkv.scan.nvme_ns", a.nvme_ns - b.nvme_ns),
                ]
            };
            let health = adapter::device_stats(dev).health;
            st.ours_err_pct = err_ours;
            out.values = vec![
                ("sim_scan_hw_s", hw_s),
                ("sim_scan_sw_s", sw.sim_ns() as f64 / 1e9),
                ("paper_err_pct", err_ours),
                ("chunk_bytes_scanned", pairs.iter().map(|p| p.bytes()).sum::<u64>() as f64),
                ("nkv.scan.par4_sim_s", par4.sim_ns() as f64 / 1e9),
                ("nkv.scan.blocks", hw.blocks() as f64),
                (
                    "nkv.scan.shadow_confirm_reads",
                    (hw.papers.report.shadow_confirm_reads + hw.refs.report.shadow_confirm_reads)
                        as f64,
                ),
                ("pe.tuples_in", (hw.papers.report.tuples_in + hw.refs.report.tuples_in) as f64),
                ("pe.tuples_out", (hw.papers.report.tuples_out + hw.refs.report.tuples_out) as f64),
                ("sim.flash_reads", (flash1.reads - flash0.reads) as f64),
                ("sim.flash_programs", (flash1.programs - flash0.programs) as f64),
                ("sim.flash_busy_ns", (flash1.busy_ns - flash0.busy_ns) as f64),
                ("sim.flash_occupancy", occupancy),
                ("sim.dropped_spans", adapter::device_stats(dev).dropped_spans as f64),
                ("nkv.retries", health.read_retries as f64),
                ("nkv.degradations", (health.sw_fallback_blocks + health.watchdog_trips) as f64),
            ];
            out.values.extend(scan_bd.iter().map(|&(n, v)| (n, v as f64)));

            out.calls = vec![
                ("pe.oracle_block_us", out.ops as f64),
                ("sim.flash_read_page_ns", (flash1.reads - flash0.reads) as f64),
                // Per block: stage, PE load, PE store, ARM config, PE job
                // (HW); stage + ARM filter (SW).
                ("sim.server_schedule_ns", hw.blocks() as f64 * 5.0 + sw.blocks() as f64 * 2.0),
                ("sim.server_backfill_ns", par4.blocks() as f64 * 5.0),
                ("nkv.crc32c_mb_per_s", pairs.iter().map(|p| p.bytes()).sum::<u64>() as f64),
            ];
            out.notes.push(format!(
                "scale 1/{:.0}: {} blocks, {:.1} MB per scan pair; matched {} papers + {} refs; \
                 4-stream blocks per worker {:?}",
                1.0 / self.scale,
                hw.blocks(),
                hw.bytes() as f64 / 1e6,
                hw.papers.count,
                hw.refs.count,
                par4_blocks,
            ));
            out.notes.push(format!(
                "Fig. 7b ours HW: {:.4} s simulated here = {:.3} s extrapolated linearly to the \
                 full dataset vs the paper's {PAPER_OURS_HW_S} s ({err_ours:.2} % off; the \
                 paper's numbers are the only reference held in the repo)",
                hw_s,
                hw_s / self.scale
            ));
        }
        out
    }

    fn finish(&self, st: State, tr: &mut Tracer) -> crate::harness::FinishOut {
        let mut fin = crate::harness::FinishOut::default();
        let ours_err_pct = st.ours_err_pct;
        drop(st);
        if !self.check_baseline || !tr.is_enabled() {
            return fin;
        }
        // The [1] composition's Fig. 7b number, once, outside every timed
        // phase: hand-crafted PEs on the original firmware.
        let mut off = Tracer::disabled();
        let built = adapter::build_device(&self.spec(Composition::Baseline));
        let pair = built
            .map_err(|e| e.to_string())
            .and_then(|mut dev| scan_pair(&mut dev, &mut off, "nkv.scan.hw", Backend::Hardware));
        match pair {
            Ok(p) => {
                let base_s = p.sim_ns() as f64 / 1e9;
                let err = (base_s / self.scale - PAPER_BASE_HW_S).abs() / PAPER_BASE_HW_S * 100.0;
                fin.ops = p.blocks();
                fin.notes.push(format!(
                    "Fig. 7b [1] HW: {base_s:.4} s simulated = {:.3} s extrapolated vs the \
                     paper's {PAPER_BASE_HW_S} s ({err:.2} % off)",
                    base_s / self.scale
                ));
                fin.values.push(("paper_err_pct", err.max(ours_err_pct)));
            }
            Err(e) => {
                fin.failed = 1;
                fin.notes.push(format!("FAILED: baseline composition: {e}"));
            }
        }
        fin
    }
}
