//! `get_point`: the paper's Fig. 7a.
//!
//! The "ours" composition at scale 1/8 with `papers` churned into 7
//! overlapping `C1` SSTs (the shape `figures::churn_c1` builds), so every
//! GET walks every `C1` index block before the deep level. One paper in
//! ten is left out of the load, so 10 % of the lookups are in-range
//! absent keys that every bloom filter has to reject.
//!
//! Phases per chunk: `serial_hw`, `serial_sw`, `batched16_hw` (key lists
//! of 16), `cached_fit` (8 MiB block cache, 128-key hot set — fits) and
//! `cached_spill` (8 MiB cache, uniform over the ≈34 MB table — does not).
//!
//! Config-register MMIO, index-page walk, bloom, block cache and planner
//! lowering dominate; the block filter and the scan merge do almost
//! nothing — this is the bypass workload for scan optimisations.

use crate::adapter::{self, Backend, Composition, Device, DeviceSpec, SimReport, SplitMix64};
use crate::digest::Fnv;
use crate::harness::{ChunkOut, Workload};
use crate::span::Tracer;
use std::collections::BTreeSet;
use std::time::Instant;

const CACHE_BYTES: usize = 8 << 20;
const HOT_KEYS: usize = 128;
const BATCH: usize = 16;
/// One paper in `SKIP_EVERY` is never loaded (the absent keys).
const SKIP_EVERY: u64 = 10;
const C1_SSTS: usize = 7;

pub struct GetPoint {
    seed: u64,
    scale: f64,
    /// Keys per phase.
    keys: usize,
}

impl GetPoint {
    pub fn new(seed: u64, quick: bool) -> Self {
        Self {
            seed,
            scale: if quick { 1.0 / 512.0 } else { 1.0 / 8.0 },
            keys: if quick { 256 } else { 1024 },
        }
    }
}

pub struct State {
    dev: Device,
    churned: BTreeSet<u64>,
    /// Key list per phase, in [`PHASES`] order.
    keys: Vec<Vec<u64>>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// One GET per call; `cached` runs it under the 8 MiB block cache.
    Single { backend: Backend, cached: bool },
    /// Key lists of [`BATCH`] on the hardware path.
    Batched,
}

const fn single(backend: Backend, cached: bool) -> Kind {
    Kind::Single { backend, cached }
}

const PHASES: [(&str, &str, Kind); 5] = [
    ("serial_hw", "nkv.get.serial_hw", single(Backend::Hardware, false)),
    ("serial_sw", "nkv.get.serial_sw", single(Backend::Software, false)),
    ("batched16_hw", "nkv.multi_get.batched16_hw", Kind::Batched),
    ("cached_fit", "nkv.get.cached_fit", single(Backend::Hardware, true)),
    ("cached_spill", "nkv.get.cached_spill", single(Backend::Hardware, true)),
];

impl State {
    fn present(&self, id: u64) -> bool {
        !id.is_multiple_of(SKIP_EVERY) || self.churned.contains(&id)
    }

    /// The generator's record for `id`, or `None` for an absent key.
    fn expected(&self, id: u64) -> Option<Vec<u8>> {
        self.present(id)
            .then(|| adapter::encode_paper(&adapter::PaperGen::paper_at(&self.dev.cfg, id - 1)))
    }

    /// A uniform key: an absent one with probability 1/10.
    fn draw(&self, rng: &mut SplitMix64) -> u64 {
        let papers = self.dev.cfg.papers;
        let want_absent = rng.gen_u32(10) == 0;
        loop {
            let id = 1 + rng.gen_u64(papers);
            let id = if want_absent { (id / SKIP_EVERY).max(1) * SKIP_EVERY } else { id };
            if id <= papers && self.present(id) != want_absent {
                return id;
            }
        }
    }
}

struct PhaseOut {
    host_ns: u64,
    sim_ns: u64,
    blocks: u64,
    reg_writes: u64,
    results: Vec<Option<Vec<u8>>>,
    errors: u64,
}

fn fold(p: &mut PhaseOut, d: &mut Fnv, r: &SimReport) {
    p.sim_ns += r.sim_ns;
    p.blocks += r.blocks;
    p.reg_writes += r.reg_writes;
    d.report(r);
}

impl Workload for GetPoint {
    type State = State;

    fn setup(&self) -> Result<State, String> {
        let mut dev = adapter::build_device(&DeviceSpec {
            composition: Composition::Ours,
            cfg: adapter::dataset_config(self.scale, self.seed),
            load_refs: false,
            papers_c1_limit: Some(12),
            skip_every: Some(SKIP_EVERY),
        })
        .map_err(|e| e.to_string())?;
        let churned = adapter::churn_c1(&mut dev, C1_SSTS).map_err(|e| e.to_string())?;
        let mut st = State { dev, churned: churned.into_iter().collect(), keys: Vec::new() };

        let mut rng = SplitMix64::new(self.seed ^ 0x6765_7473);
        let hot: Vec<u64> = {
            let mut set = BTreeSet::new();
            while set.len() < HOT_KEYS.min(self.keys) {
                let id = st.draw(&mut rng);
                if st.present(id) {
                    set.insert(id);
                }
            }
            set.into_iter().collect()
        };
        for (name, _, kind) in PHASES {
            let list = match (kind, name) {
                (_, "cached_fit") => {
                    (0..self.keys).map(|_| hot[rng.gen_usize(hot.len())]).collect()
                }
                (Kind::Batched, _) => {
                    // A key list rejects duplicates: draw each batch distinct.
                    let mut list = Vec::with_capacity(self.keys);
                    while list.len() < self.keys {
                        let mut batch = BTreeSet::new();
                        while batch.len() < BATCH {
                            batch.insert(st.draw(&mut rng));
                        }
                        list.extend(batch);
                    }
                    list
                }
                _ => (0..self.keys).map(|_| st.draw(&mut rng)).collect(),
            };
            st.keys.push(list);
        }
        Ok(st)
    }

    fn observe(&self, st: &mut State) {
        adapter::enable_observability(&mut st.dev);
    }

    fn setup_values(&self, st: &State) -> Vec<(&'static str, f64)> {
        vec![("nkv.bulk_load_mb_per_s", st.dev.load.mb_per_s())]
    }

    fn chunk(&self, st: &mut State, tr: &mut Tracer, detail: bool) -> ChunkOut {
        let mut out = ChunkOut::default();
        let mut digest = Fnv::new();
        let flash0 = adapter::flash_counters(&mut st.dev);
        let mut phases = Vec::with_capacity(PHASES.len());
        let mut breakdowns = Vec::new();
        let mut cache_spill = adapter::CacheStats::default();
        let (mut cache_lookups, mut cache_inserts) = (0u64, 0u64);

        for (i, (_, span, kind)) in PHASES.iter().enumerate() {
            let keys = &st.keys[i];
            let mut p = PhaseOut {
                host_ns: 0,
                sim_ns: 0,
                blocks: 0,
                reg_writes: 0,
                results: Vec::with_capacity(keys.len()),
                errors: 0,
            };
            let stats0 = detail.then(|| adapter::device_stats(&st.dev));
            let cached = matches!(kind, Kind::Single { cached: true, .. });
            if cached {
                adapter::enable_cache(&mut st.dev, CACHE_BYTES);
            }
            let t = Instant::now();
            match *kind {
                Kind::Single { backend, .. } => {
                    for &key in keys {
                        tr.next_request();
                        match adapter::get(&mut st.dev, tr, span, key, backend) {
                            Ok((rec, report)) => {
                                fold(&mut p, &mut digest, &report);
                                p.results.push(rec);
                            }
                            Err(_) => {
                                p.errors += 1;
                                p.results.push(None);
                            }
                        }
                    }
                }
                Kind::Batched => {
                    for batch in keys.chunks(BATCH) {
                        tr.next_request();
                        match adapter::multi_get(&mut st.dev, tr, span, batch, Backend::Hardware) {
                            Ok((results, report)) => {
                                fold(&mut p, &mut digest, &report);
                                for r in results {
                                    p.errors += u64::from(r.is_err());
                                    p.results.push(r.ok().flatten());
                                }
                            }
                            Err(_) => {
                                p.errors += batch.len() as u64;
                                p.results.extend(batch.iter().map(|_| None));
                            }
                        }
                    }
                }
            }
            p.host_ns = t.elapsed().as_nanos() as u64;
            if cached {
                let c = adapter::cache_stats(&st.dev);
                cache_lookups += c.lookups;
                cache_inserts += c.insertions;
                cache_spill = c; // the last cached phase is the spill
                adapter::disable_cache(&mut st.dev);
            }
            if let Some(s0) = stats0 {
                let s1 = adapter::device_stats(&st.dev);
                let (a, b) = (
                    s1.metrics.op(adapter::OpKind::Get).breakdown,
                    s0.metrics.op(adapter::OpKind::Get).breakdown,
                );
                breakdowns.push([
                    a.cfg_ns - b.cfg_ns,
                    a.flash_ns - b.flash_ns,
                    a.dram_ns - b.dram_ns,
                    a.pe_ns - b.pe_ns,
                    a.nvme_ns - b.nvme_ns,
                ]);
            }
            adapter::discard_device_trace(&mut st.dev);
            phases.push(p);
        }
        let flash1 = adapter::flash_counters(&mut st.dev);

        // Verify every GET against the generator (untimed).
        for (p, keys) in phases.iter().zip(&st.keys) {
            out.ops += keys.len() as u64;
            out.host_ns += p.host_ns;
            out.sim_ns += p.sim_ns;
            let mut wrong = p.errors;
            for (got, &key) in p.results.iter().zip(keys) {
                let want = st.expected(key);
                wrong += u64::from(*got != want);
                match got {
                    Some(bytes) => digest.bytes(bytes),
                    None => digest.u64(u64::MAX),
                };
            }
            out.failed += wrong.min(keys.len() as u64);
        }
        out.digest = digest.finish();

        if detail {
            let n = self.keys as f64;
            let per_key_us = |p: &PhaseOut| p.sim_ns as f64 / 1e3 / n;
            let (hw, sw, batched, spill) = (&phases[0], &phases[1], &phases[2], &phases[4]);
            out.values = vec![
                ("sim_get_hw_us", per_key_us(hw)),
                ("sim_get_batched_us", per_key_us(batched)),
                ("sim_get_cached_us", per_key_us(spill)),
                ("nkv.get.blocks_per_lookup", hw.blocks as f64 / n),
                ("nkv.get.reg_writes_per_key", hw.reg_writes as f64 / n),
                ("sim.cache_hit_rate", cache_spill.hit_rate()),
                ("sim.cache_evictions", cache_spill.evictions as f64),
                ("sim.flash_reads", (flash1.reads - flash0.reads) as f64),
                ("sim.flash_programs", (flash1.programs - flash0.programs) as f64),
                ("sim.flash_busy_ns", (flash1.busy_ns - flash0.busy_ns) as f64),
                ("multi_get.keys_per_call", BATCH as f64),
            ];
            if let (Some(h), Some(b)) = (breakdowns.first(), breakdowns.get(2)) {
                let ratio = |bd: &[u64; 5]| bd[0] as f64 / bd[4].max(1) as f64;
                out.values.extend([
                    ("nkv.get.cfg_ns", h[0] as f64),
                    ("nkv.get.flash_ns", h[1] as f64),
                    ("nkv.get.dram_ns", h[2] as f64),
                    ("nkv.get.pe_ns", h[3] as f64),
                    ("nkv.get.nvme_ns", h[4] as f64),
                    ("nkv.get.config_tax_ratio", ratio(h)),
                    ("nkv.get.config_tax_batched", ratio(b)),
                ]);
            }
            let stats = adapter::device_stats(&st.dev);
            out.values.extend([
                ("sim.dropped_spans", stats.dropped_spans as f64),
                ("nkv.retries", stats.health.read_retries as f64),
                (
                    "nkv.degradations",
                    (stats.health.sw_fallback_blocks + stats.health.watchdog_trips) as f64,
                ),
            ]);
            let hw_blocks: u64 = [0usize, 2, 3, 4].iter().map(|&i| phases[i].blocks).sum();
            let all_blocks: u64 = phases.iter().map(|p| p.blocks).sum();
            let ssts = (C1_SSTS + 1) as f64;
            out.calls = vec![
                ("nkv.plan_lower_ns", n * 4.0 + n / BATCH as f64),
                ("nkv.bloom_lookup_ns", out.ops as f64 * ssts),
                ("sim.flash_read_page_ns", (flash1.reads - flash0.reads) as f64),
                ("sim.cache_lookup_ns", cache_lookups as f64),
                ("sim.cache_insert_ns", cache_inserts as f64),
                ("pe.oracle_block_us", hw_blocks as f64),
                ("nkv.crc32c_mb_per_s", (all_blocks * adapter::BLOCK_BYTES) as f64),
                // Per GET: memtable probe, stage, config, PE job, load, store.
                ("sim.server_schedule_ns", out.ops as f64 * 6.0),
            ];
            out.notes.push(format!(
                "{} keys per phase x {} phases; levels {:?}; sim us/key: serial_hw {:.2}, \
                 serial_sw {:.2}, batched16_hw {:.2}, cached_fit {:.2}, cached_spill {:.2}; \
                 spill cache hit rate {:.3} ({} evictions)",
                self.keys,
                PHASES.len(),
                adapter::level_sizes(&st.dev),
                per_key_us(hw),
                per_key_us(sw),
                per_key_us(batched),
                per_key_us(&phases[3]),
                per_key_us(spill),
                cache_spill.hit_rate(),
                cache_spill.evictions,
            ));
        }
        out
    }
}
