//! `ingest_churn`: the write path beside reads.
//!
//! Timed `bulk_load` of `papers` + `refs` at scale 1/8 (the set-up), then
//! chunks of PUTs uniform over the `papers` key space with 5 % DELETEs
//! under the default `LsmConfig` (`C1 -> C2 …` compaction). After the last
//! chunk: `persist`, power cut, `recover` from the flash image alone,
//! then GETs and one SCAN checked against an in-benchmark `BTreeMap`
//! model.
//!
//! A chunk is five rounds of 30 000 ops, each round ended by a `flush`
//! (the 4 MiB memtable would flush by itself after about 33 000). `C1`
//! compacts when it holds more than four SSTs, so every chunk carries
//! exactly five flushes and one compaction: chunks are alike and their
//! median means something. Left to the automatic flush alone, a chunk has
//! one compaction or none (0.07 s against 0.5–0.8 s here).
//!
//! Every chunk applies the identical op list, so the logical state after
//! any number of chunks is the same and the post-recovery check does not
//! depend on how many chunks ran. The flash model never reclaims a
//! retired SST's pages, so device memory grows with every chunk: the
//! chunk count is capped, or `peak_rss_mb` would measure the host's speed.
//!
//! Uses memtable, SST builder, merge iterators, CRC, the flash *program*
//! path, cache invalidation and the manifest — the layers of the read
//! workloads, used differently.

use crate::adapter::{
    self, Backend, Composition, Device, DeviceSpec, OpKind, PaperGen, SplitMix64,
};
use crate::digest::{fnv1a, Fnv};
use crate::harness::{ChunkOut, FinishOut, Workload};
use crate::span::Tracer;
use std::collections::BTreeMap;
use std::time::Instant;

/// Venue marker of a rewritten record (generator venues stay below 5000).
const REWRITTEN_VENUE: u32 = 5000;
const VERIFY_GETS: usize = 4000;
/// Rounds per chunk: one more than `LsmConfig::default().c1_sst_limit`,
/// i.e. one compaction cycle.
const ROUNDS: usize = 5;
/// Measured chunks per run (each adds ≈ 35 MB to the flash image).
const CHUNKS: usize = 8;

pub struct IngestChurn {
    seed: u64,
    scale: f64,
    ops_per_round: usize,
}

impl IngestChurn {
    pub fn new(seed: u64, quick: bool) -> Self {
        Self {
            seed,
            scale: if quick { 1.0 / 512.0 } else { 1.0 / 8.0 },
            ops_per_round: if quick { 10_000 } else { 30_000 },
        }
    }

    fn spec(&self) -> DeviceSpec {
        DeviceSpec {
            composition: Composition::Ours,
            cfg: adapter::dataset_config(self.scale, self.seed),
            load_refs: true,
            papers_c1_limit: None, // LsmConfig::default()
            skip_every: None,
        }
    }
}

enum Op {
    Put(Vec<u8>),
    Delete(u64),
}

pub struct State {
    dev: Device,
    ops: Vec<Op>,
    /// Keys the op list touches: `Some(version)` = rewritten, `None` =
    /// deleted. Untouched keys still hold the generator's record.
    model: BTreeMap<u64, Option<u32>>,
    user_bytes_per_chunk: u64,
    chunks_applied: u64,
}

/// The record a PUT writes: the generator's paper with a marker venue and
/// a version in `n_cits`.
fn rewritten(cfg: &adapter::PubGraphConfig, id: u64, version: u32) -> Vec<u8> {
    let mut p = PaperGen::paper_at(cfg, id - 1);
    p.venue = REWRITTEN_VENUE + version % 1000;
    p.n_cits = version;
    adapter::encode_paper(&p)
}

impl State {
    fn expected(&self, id: u64) -> Option<Vec<u8>> {
        match self.model.get(&id) {
            Some(Some(version)) => Some(rewritten(&self.dev.cfg, id, *version)),
            Some(None) => None,
            None => Some(adapter::encode_paper(&PaperGen::paper_at(&self.dev.cfg, id - 1))),
        }
    }
}

impl Workload for IngestChurn {
    type State = State;

    fn setup(&self) -> Result<State, String> {
        let dev = adapter::build_device(&self.spec()).map_err(|e| e.to_string())?;
        let mut rng = SplitMix64::new(self.seed ^ 0x696e_6765_7374);
        let mut ops = Vec::with_capacity(self.ops_per_round * ROUNDS);
        let mut model = BTreeMap::new();
        let mut user_bytes = 0u64;
        for i in 0..self.ops_per_round * ROUNDS {
            let id = 1 + rng.gen_u64(dev.cfg.papers);
            if rng.gen_u32(100) < 5 {
                model.insert(id, None);
                ops.push(Op::Delete(id));
            } else {
                let version = i as u32;
                model.insert(id, Some(version));
                ops.push(Op::Put(rewritten(&dev.cfg, id, version)));
                user_bytes += adapter::PAPER_BYTES as u64;
            }
        }
        Ok(State { dev, ops, model, user_bytes_per_chunk: user_bytes, chunks_applied: 0 })
    }

    fn fixed_chunks(&self) -> Option<usize> {
        Some(CHUNKS)
    }

    fn observe(&self, st: &mut State) {
        adapter::enable_observability(&mut st.dev);
    }

    fn setup_values(&self, st: &State) -> Vec<(&'static str, f64)> {
        vec![("nkv.bulk_load_mb_per_s", st.dev.load.mb_per_s())]
    }

    fn chunk(&self, st: &mut State, tr: &mut Tracer, detail: bool) -> ChunkOut {
        let mut out = ChunkOut::default();
        let flash0 = adapter::flash_counters(&mut st.dev);
        let stats0 = detail.then(|| adapter::device_stats(&st.dev));
        let clock0 = adapter::sim_clock_ns(&st.dev);

        tr.next_request();
        let span = tr.begin("nkv.put_delete_chunk");
        let t = Instant::now();
        for round in st.ops.chunks(self.ops_per_round) {
            for op in round {
                let res = match op {
                    Op::Put(record) => adapter::put(&mut st.dev, record.clone()),
                    Op::Delete(key) => adapter::delete(&mut st.dev, *key),
                };
                out.failed += u64::from(res.is_err());
            }
            out.failed += u64::from(adapter::flush(&mut st.dev).is_err());
        }
        out.host_ns = t.elapsed().as_nanos() as u64;
        tr.end(span);
        st.chunks_applied += 1;
        adapter::discard_device_trace(&mut st.dev);

        out.ops = st.ops.len() as u64;
        out.sim_ns = adapter::sim_clock_ns(&st.dev) - clock0;
        let flash1 = adapter::flash_counters(&mut st.dev);
        let levels = adapter::level_sizes(&st.dev);
        let mut digest = Fnv::new();
        digest.u64(out.sim_ns).u64(flash1.reads).u64(flash1.programs).u64(flash1.stored_bytes);
        for &n in &levels {
            digest.u64(n as u64);
        }
        out.digest = digest.finish();

        if let Some(s0) = stats0 {
            // Amplification over everything written since the device was
            // empty: the bulk load plus every pass over the op list.
            let user_written = st.dev.load.bytes + st.user_bytes_per_chunk * st.chunks_applied;
            let programmed = flash1.programs * flash1.page_bytes;
            let deleted = st.model.values().filter(|v| v.is_none()).count() as u64;
            let live_bytes = (st.dev.cfg.papers - deleted) * adapter::PAPER_BYTES as u64
                + st.dev.cfg.refs * adapter::REF_BYTES as u64;
            let reads = (flash1.reads - flash0.reads) as f64;
            let programs = (flash1.programs - flash0.programs) as f64;
            let s1 = adapter::device_stats(&st.dev);
            let count = |k: OpKind| (s1.metrics.op(k).ops - s0.metrics.op(k).ops) as f64;
            let comp_ns = s1.metrics.op(OpKind::Compaction).hist.sum()
                - s0.metrics.op(OpKind::Compaction).hist.sum();
            out.values = vec![
                ("write_amp", programmed as f64 / user_written as f64),
                ("space_amp", flash1.stored_bytes as f64 / live_bytes as f64),
                ("sim.flash_reads", reads),
                ("sim.flash_programs", programs),
                ("sim.flash_busy_ns", (flash1.busy_ns - flash0.busy_ns) as f64),
                // Zero unless the product's op metrics are on (traced run).
                ("nkv.flush_count", count(OpKind::Flush)),
                ("nkv.compaction_count", count(OpKind::Compaction)),
                ("nkv.compaction_sim_ms", comp_ns as f64 / 1e6),
                ("sim.dropped_spans", s1.dropped_spans as f64),
                ("nkv.retries", s1.health.read_retries as f64),
                (
                    "nkv.degradations",
                    (s1.health.sw_fallback_blocks + s1.health.watchdog_trips) as f64,
                ),
            ];
            out.calls = vec![
                ("nkv.memtable_put_ns", out.ops as f64),
                ("sim.flash_program_page_ns", programs),
                ("sim.flash_read_page_ns", reads),
                ("nkv.crc32c_mb_per_s", (reads + programs) * flash1.page_bytes as f64),
            ];
            out.notes.push(format!(
                "chunk = {ROUNDS} rounds x {} PUT/DELETE + flush ({deleted} deletes in all); bulk \
                 load {:.1} MB at {:.1} MB/s host; after {} passes over the op list: levels \
                 {levels:?}, this chunk programmed {programs} pages and read {reads}, flash holds \
                 {:.1} MB for {:.1} MB live (the flash model never reclaims a retired SST's pages)",
                self.ops_per_round,
                st.dev.load.bytes as f64 / 1e6,
                st.dev.load.mb_per_s(),
                st.chunks_applied,
                flash1.stored_bytes as f64 / 1e6,
                live_bytes as f64 / 1e6,
            ));
        }
        out
    }

    /// Persist (every round already flushed), cut the power, recover from
    /// flash alone, and check reads and one SCAN against the model.
    fn finish(&self, mut st: State, tr: &mut Tracer) -> FinishOut {
        let mut fin = FinishOut::default();
        fn fail(fin: &mut FinishOut, what: String) {
            fin.failed += 1;
            fin.notes.push(format!("FAILED: {what}"));
        }

        tr.next_request();
        let t = Instant::now();
        let s = tr.begin("nkv.persist");
        let persisted = adapter::persist(&mut st.dev);
        tr.end(s);
        let persist_ms = t.elapsed().as_secs_f64() * 1e3;
        fin.ops += 1;
        if let Err(e) = persisted {
            fail(&mut fin, format!("persist: {e}"));
            return fin;
        }

        let State { dev, model, ops, .. } = st;
        drop(ops);
        let cfg = dev.cfg;
        let t = Instant::now();
        let s = tr.begin("nkv.recover");
        let recovered = adapter::power_cycle(dev, Composition::Ours, None);
        tr.end(s);
        let recover_ms = t.elapsed().as_secs_f64() * 1e3;
        fin.ops += 1;
        let dev = match recovered {
            Ok(dev) => dev,
            Err(e) => {
                fail(&mut fin, format!("recover: {e}"));
                return fin;
            }
        };
        let mut st =
            State { dev, ops: Vec::new(), model, user_bytes_per_chunk: 0, chunks_applied: 0 };

        // Post-recovery reads: half over touched keys, half uniform.
        let mut rng = SplitMix64::new(self.seed ^ 0x7665_7269_6679);
        let touched: Vec<u64> = st.model.keys().copied().collect();
        let mut digest = Fnv::new();
        let mut wrong = 0u64;
        let gets = VERIFY_GETS.min(touched.len() * 2);
        for i in 0..gets {
            let id = if i % 2 == 0 {
                touched[rng.gen_usize(touched.len())]
            } else {
                1 + rng.gen_u64(cfg.papers)
            };
            let backend = if i % 4 < 2 { Backend::Hardware } else { Backend::Software };
            tr.next_request();
            let got = adapter::get(&mut st.dev, tr, "nkv.get.verify", id, backend);
            let want = st.expected(id);
            match got {
                Ok((rec, report)) => {
                    fin.sim_ns += report.sim_ns;
                    wrong += u64::from(rec != want);
                    digest.u64(rec.as_deref().map_or(u64::MAX, fnv1a));
                }
                Err(_) => wrong += 1,
            }
        }
        fin.ops += gets as u64;

        // One SCAN: exactly the live rewritten records, as a multiset.
        tr.next_request();
        let scan = adapter::scan(
            &mut st.dev,
            tr,
            "nkv.scan.verify",
            adapter::PAPERS,
            &adapter::rewritten_rules(),
            Backend::Hardware,
        );
        fin.ops += 1;
        let want: Vec<(u64, u32)> =
            st.model.iter().filter_map(|(&id, v)| v.map(|version| (id, version))).collect();
        match scan {
            Ok(s) => {
                let fold = |acc: u64, rec: &[u8]| acc.wrapping_add(fnv1a(rec));
                let got_sum = s.records.chunks_exact(adapter::PAPER_BYTES).fold(0u64, fold);
                let want_sum =
                    want.iter().fold(0u64, |acc, &(id, v)| fold(acc, &rewritten(&cfg, id, v)));
                if s.count != want.len() as u64 || got_sum != want_sum {
                    wrong += 1;
                    fin.notes.push(format!(
                        "FAILED: post-recovery SCAN returned {} records, model holds {}",
                        s.count,
                        want.len()
                    ));
                }
                fin.sim_ns += s.report.sim_ns;
                digest.u64(s.count).u64(got_sum).u64(fin.sim_ns);
            }
            Err(e) => fail(&mut fin, format!("post-recovery scan: {e}")),
        }
        if wrong > 0 {
            fin.notes.push(format!("FAILED: {wrong} post-recovery checks against the model"));
        }
        fin.failed += wrong;
        fin.digest = digest.finish();
        fin.values = vec![("nkv.persist_ms", persist_ms), ("nkv.recover_ms", recover_ms)];
        fin.notes.push(format!(
            "persist {persist_ms:.1} ms, power cut + recover {recover_ms:.1} ms host; {gets} GETs \
             and 1 SCAN ({} rewritten live records) checked against the model",
            want.len()
        ));
        fin
    }
}
