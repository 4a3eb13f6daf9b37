//! The LSM tree: components `C0..Ck` over flash-resident SSTs.
//!
//! Mirrors the paper's description (Sec. III-A):
//!
//! * all writes go to the memtable (`C0`);
//! * when `C0` reaches its size threshold it is **flushed** into a new
//!   SST of `C1` *without compaction* ("for performance, no compaction
//!   takes place during the flush"), so `C1` holds multiple, possibly
//!   overlapping SSTs and several versions of one key may coexist;
//! * background **compaction** merges a level into the next, purging
//!   outdated pairs and (at the bottom level) tombstones;
//! * GET therefore probes the memtable, *every* SST of `C1`
//!   (newest-first), and one SST per deeper level.

use crate::error::{NkvError, NkvResult};
use crate::memtable::{Entry, MemTable};
use crate::placement::PageAllocator;
use crate::sst::{read_block, write_index, RunShape, RunWriter, SstMeta};
use cosmos_sim::{FlashArray, PhysAddr, SharedBytes, SimNs};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Tuning knobs of one LSM tree.
#[derive(Debug, Clone)]
pub struct LsmConfig {
    /// Memtable flush threshold in bytes.
    pub memtable_bytes: usize,
    /// Data block size (the paper's 32 KiB processing granularity).
    pub block_bytes: usize,
    /// Maximum SST count in `C1` before compaction into `C2`.
    pub c1_sst_limit: usize,
    /// Size ratio between consecutive levels.
    pub level_fanout: usize,
    /// Maximum number of persistent levels (`C1..Ck`).
    pub max_levels: usize,
}

impl Default for LsmConfig {
    fn default() -> Self {
        Self {
            memtable_bytes: 4 << 20,
            block_bytes: 32 * 1024,
            c1_sst_limit: 4,
            level_fanout: 10,
            max_levels: 7,
        }
    }
}

/// One LSM tree (one table / column family).
pub struct LsmTree {
    table: String,
    record_bytes: usize,
    cfg: LsmConfig,
    memtable: MemTable,
    /// `levels[0]` = `C1` (newest SST first); deeper levels hold
    /// non-overlapping runs sorted by key range.
    levels: Vec<Vec<SstMeta>>,
    seed: u64,
    /// SST ids retired since the last [`Self::take_retired`] drain:
    /// compaction inputs whose pages may still sit in the device block
    /// cache. SSTs are immutable and the bump allocator never reuses
    /// pages, so retirement is the only way block *content* goes stale.
    retired: Vec<u64>,
}

impl LsmTree {
    /// Create an empty tree.
    pub fn new(table: &str, record_bytes: usize, cfg: LsmConfig, seed: u64) -> Self {
        let max_levels = cfg.max_levels;
        Self {
            table: table.to_string(),
            record_bytes,
            cfg,
            memtable: MemTable::new(seed),
            levels: vec![Vec::new(); max_levels],
            seed,
            retired: Vec::new(),
        }
    }

    /// Fixed record size of this table.
    pub(crate) fn record_bytes(&self) -> usize {
        self.record_bytes
    }

    /// The in-memory component.
    pub(crate) fn memtable(&self) -> &MemTable {
        &self.memtable
    }

    /// Size-check `record` and decode its embedded key (its first 8
    /// bytes, little endian) — a typed error, never a panic: the write
    /// and bulk-load paths are reachable from the cluster router's shard
    /// calls, where a panic would take down the whole fleet simulation
    /// instead of failing one shard.
    pub(crate) fn record_key(&self, record: &[u8]) -> NkvResult<u64> {
        let key = record.get(..8).and_then(|k| <[u8; 8]>::try_from(k).ok());
        key.filter(|_| record.len() == self.record_bytes).map(u64::from_le_bytes).ok_or_else(|| {
            NkvError::RecordSizeMismatch {
                table: self.table.clone(),
                expected: self.record_bytes,
                got: record.len(),
            }
        })
    }

    /// Insert or update a record (`key` = `record_key`).
    pub fn put(&mut self, key: u64, record: Vec<u8>) {
        self.memtable.put(key, record);
    }

    /// Delete a key (tombstone).
    pub fn delete(&mut self, key: u64) {
        self.memtable.delete(key);
    }

    /// Should the memtable be flushed?
    pub(crate) fn should_flush(&self) -> bool {
        self.memtable.approximate_bytes() >= self.cfg.memtable_bytes
    }

    /// Should `level` be compacted into `level + 1`?
    pub fn should_compact(&self, level: usize) -> bool {
        if level == 0 {
            self.levels[0].len() > self.cfg.c1_sst_limit
        } else if level + 1 < self.levels.len() {
            let limit = self.cfg.c1_sst_limit * self.cfg.level_fanout.pow(level as u32);
            self.levels[level].len() > limit
        } else {
            false
        }
    }

    /// Start a run of SSTs placed at `level` (1-based), each at most
    /// `blocks_per_sst` full blocks of entries long — the one roll-over
    /// rule of the write path.
    fn run<'a>(
        &'a self,
        flash: &'a mut FlashArray,
        alloc: &'a mut PageAllocator,
        now: SimNs,
        level: usize,
        blocks_per_sst: usize,
        allow_duplicates: bool,
    ) -> RunWriter<'a> {
        let per_block = (self.cfg.block_bytes / self.record_bytes).max(1);
        let shape = RunShape {
            table: &self.table,
            level,
            record_bytes: self.record_bytes,
            block_bytes: self.cfg.block_bytes,
            entries_per_sst: per_block.saturating_mul(blocks_per_sst),
            allow_duplicates,
        };
        RunWriter::new(flash, alloc, now, shape)
    }

    /// Flush `C0` into a fresh `C1` SST (no compaction, per the paper):
    /// a run that never rolls over. Returns the completion time; no-op
    /// on an empty memtable.
    pub fn flush(
        &mut self,
        flash: &mut FlashArray,
        alloc: &mut PageAllocator,
        now: SimNs,
    ) -> NkvResult<SimNs> {
        let mut run = self.run(flash, alloc, now, 1, usize::MAX, false);
        for (key, entry) in self.memtable.iter() {
            let record = match entry {
                Entry::Value(rec) => Some(rec.as_slice()),
                Entry::Tombstone => None,
            };
            run.add(key, record)?;
        }
        let (ssts, done) = run.finish()?;
        for meta in ssts {
            self.memtable = MemTable::new(self.seed ^ meta.id);
            self.levels[0].insert(0, meta); // newest first
        }
        Ok(done)
    }

    /// Bulk-load ascending records straight into fresh `C2` SSTs (the
    /// sorted ingest path: bypasses the memtable; the caller guarantees
    /// the keys do not overlap earlier loads). The SSTs are installed
    /// once the whole run is on flash, so a rejected record leaves the
    /// tree as it was. Returns the record count and the completion time.
    pub(crate) fn bulk_load(
        &mut self,
        flash: &mut FlashArray,
        alloc: &mut PageAllocator,
        records: impl IntoIterator<Item = Vec<u8>>,
        allow_duplicates: bool,
        now: SimNs,
    ) -> NkvResult<(u64, SimNs)> {
        let mut run = self.run(flash, alloc, now, 2, 2048, allow_duplicates);
        let mut loaded = 0;
        for record in records {
            run.add(self.record_key(&record)?, Some(&record))?;
            loaded += 1;
        }
        let (ssts, done) = run.finish()?;
        self.levels[1].extend(ssts);
        Ok((loaded, done))
    }

    /// Compact `level` into `level + 1`: every input block is read, then
    /// a newest-wins merge streams into a run of bounded SSTs; tombstones
    /// are purged when the output is the bottom populated level. The tree
    /// changes only once the output run is complete — a failed compaction
    /// returns its error and leaves every level as it was. Returns the
    /// completion time.
    pub fn compact(
        &mut self,
        flash: &mut FlashArray,
        alloc: &mut PageAllocator,
        level: usize,
        now: SimNs,
    ) -> NkvResult<SimNs> {
        assert!(level + 1 < self.levels.len(), "cannot compact the bottom level");
        if self.levels[level].is_empty() {
            return Ok(now);
        }
        // Inputs in recency order: all SSTs of `level`, then all SSTs of
        // `level + 1` (older than anything above).
        let inputs: Vec<&SstMeta> =
            self.levels[level].iter().chain(&self.levels[level + 1]).collect();
        let bottom = self.levels[level + 2..].iter().all(Vec::is_empty);

        let mut read_done = now;
        let mut blocks: Vec<Vec<SharedBytes>> = Vec::with_capacity(inputs.len());
        for sst in &inputs {
            let mut data = Vec::with_capacity(sst.blocks.len());
            for i in 0..sst.blocks.len() {
                // A transient read fault must not abort the merge: retry
                // a few times; anything persistent still propagates.
                let mut attempt = 0u32;
                let (t, block) = loop {
                    match read_block(flash, sst, i, now) {
                        Err(NkvError::Flash(e)) if e.is_retryable() && attempt < 4 => attempt += 1,
                        other => break other?,
                    }
                };
                read_done = read_done.max(t);
                data.push(block);
            }
            blocks.push(data);
        }

        // Two sorted sources per SST, records and tombstones (an SST
        // never holds both for one key — the memtable collapses them
        // before flush), ranked by the SST's recency.
        let mut sources: Vec<MergeSource<'_>> = Vec::with_capacity(2 * inputs.len());
        for (sst, data) in inputs.iter().zip(&blocks) {
            let records = data.iter().flat_map(|b| b.chunks_exact(sst.record_bytes)).map(|rec| {
                Ok((crate::util::le_u64(rec, 0, "SST record key during merge")?, Some(rec)))
            });
            sources.push(Box::new(records));
            sources.push(Box::new(sst.tombstones.iter().map(|&key| Ok((key, None)))));
        }
        let mut merge = Merge::new(sources)?;
        // LSM level `level + 1` is placement level `level + 2` (1-based).
        let mut run = self.run(flash, alloc, read_done, level + 2, 64, false);
        while let Some((key, record)) = merge.next_entry()? {
            if record.is_some() || !bottom {
                run.add(key, record)?;
            }
        }
        let (out, done) = run.finish()?;
        drop(merge); // the last borrow of the input blocks and tombstones

        // Commit: the output run is on flash, swap it in for its inputs.
        self.retired.extend(inputs.iter().map(|s| s.id));
        self.levels[level].clear();
        self.levels[level + 1] = out;
        Ok(done)
    }

    /// Per-level SST metadata (read-only view for persistence).
    pub(crate) fn levels(&self) -> &[Vec<SstMeta>] {
        &self.levels
    }

    /// Drain the SST ids retired by compactions since the last drain.
    /// The caller (the DB maintenance loop) evicts them from the device
    /// block cache; the list is empty when nothing was retired.
    pub(crate) fn take_retired(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.retired)
    }

    /// Rebuild a tree from recovered SST metadata (`(level, meta)` pairs
    /// in recency order per level; the memtable starts empty — volatile
    /// state does not survive a power cycle).
    pub(crate) fn from_recovered(
        table: &str,
        record_bytes: usize,
        cfg: LsmConfig,
        seed: u64,
        recovered: Vec<(u32, SstMeta)>,
    ) -> Self {
        let mut tree = Self::new(table, record_bytes, cfg, seed);
        for (level, meta) in recovered {
            let level = (level as usize).min(tree.levels.len() - 1);
            tree.levels[level].push(meta);
        }
        tree
    }

    /// Memtable lookup.
    pub fn memtable_get(&self, key: u64) -> Option<&Entry> {
        self.memtable.get(key)
    }

    /// SSTs a GET for `key` must consult, in recency order: every
    /// matching `C1` SST (newest first), then at most one per deeper
    /// level.
    pub fn candidate_ssts(&self, key: u64) -> Vec<&SstMeta> {
        let mut out = Vec::new();
        for sst in &self.levels[0] {
            if key >= sst.min_key && key <= sst.max_key {
                out.push(sst);
            }
        }
        for level in &self.levels[1..] {
            if let Some(sst) = level.iter().find(|s| key >= s.min_key && key <= s.max_key) {
                out.push(sst);
            }
        }
        out
    }

    /// All SSTs in recency order (for SCAN).
    pub(crate) fn all_ssts(&self) -> Vec<&SstMeta> {
        let mut out: Vec<&SstMeta> = self.levels[0].iter().collect();
        for level in &self.levels[1..] {
            out.extend(level.iter());
        }
        out
    }

    /// Number of SSTs per level (diagnostics).
    pub(crate) fn level_sizes(&self) -> Vec<usize> {
        self.levels.iter().map(Vec::len).collect()
    }

    /// Total records across all SSTs (including shadowed versions).
    #[cfg(test)]
    pub(crate) fn persistent_records(&self) -> u64 {
        self.levels.iter().flatten().map(|s| s.n_records).sum()
    }

    /// True if any live SST references physical page `addr` — as a data
    /// page or as an index page. Used by read-repair to decide whether a
    /// degrading page still holds reachable data.
    pub(crate) fn references_page(&self, addr: PhysAddr) -> bool {
        self.levels.iter().flatten().any(|sst| {
            sst.index_pages.contains(&addr) || sst.blocks.iter().any(|b| b.pages.contains(&addr))
        })
    }

    /// Rewire every reference to page `old` so it points at `new`
    /// (read-repair relocation after the payload was copied). Returns the
    /// ids of SSTs whose *data-block* page lists changed — those SSTs'
    /// on-flash index blocks are now stale and must be rewritten via
    /// [`Self::rewrite_index`]. Index-page moves only touch in-memory
    /// metadata (and the manifest, which the caller re-persists).
    pub(crate) fn relocate_page(&mut self, old: PhysAddr, new: PhysAddr) -> Vec<u64> {
        let mut stale = Vec::new();
        for sst in self.levels.iter_mut().flatten() {
            let mut data_changed = false;
            for block in &mut sst.blocks {
                for p in &mut block.pages {
                    if *p == old {
                        *p = new;
                        data_changed = true;
                    }
                }
            }
            for p in &mut sst.index_pages {
                if *p == old {
                    *p = new;
                }
            }
            if data_changed {
                stale.push(sst.id);
            }
        }
        stale
    }

    /// Re-serialize the index block of SST `sst_id` to freshly allocated
    /// pages (the bump allocator never reuses pages, so the old index
    /// stays readable until the manifest is re-persisted). No-op for an
    /// unknown id. Returns the completion time.
    pub(crate) fn rewrite_index(
        &mut self,
        flash: &mut FlashArray,
        alloc: &mut PageAllocator,
        sst_id: u64,
        now: SimNs,
    ) -> NkvResult<SimNs> {
        match self.levels.iter_mut().flatten().find(|s| s.id == sst_id) {
            Some(sst) => write_index(flash, alloc, sst, now),
            None => Ok(now),
        }
    }
}

/// One merged entry: a key and its record, or `None` for a tombstone.
type MergeEntry<'a> = (u64, Option<&'a [u8]>);

/// One sorted input of a [`Merge`].
type MergeSource<'a> = Box<dyn Iterator<Item = NkvResult<MergeEntry<'a>>> + 'a>;

/// Newest-wins k-way merge over sorted sources ranked by recency (lower
/// index = newer): yields each key once, with the newest source's entry.
struct Merge<'a> {
    sources: Vec<MergeSource<'a>>,
    /// Each source's current record (its key sits in `heap`).
    heads: Vec<Option<&'a [u8]>>,
    /// `(key, source)` of every unexhausted source, smallest first.
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    /// Sources whose head was consumed by the entry being yielded.
    consumed: Vec<usize>,
}

impl<'a> Merge<'a> {
    fn new(sources: Vec<MergeSource<'a>>) -> NkvResult<Self> {
        let n = sources.len();
        let mut merge = Self {
            sources,
            heads: vec![None; n],
            heap: BinaryHeap::with_capacity(n),
            consumed: (0..n).collect(),
        };
        merge.refill()?;
        Ok(merge)
    }

    /// Advance every consumed source by one entry.
    fn refill(&mut self) -> NkvResult<()> {
        while let Some(i) = self.consumed.pop() {
            if let Some(entry) = self.sources[i].next() {
                let (key, record) = entry?;
                self.heads[i] = record;
                self.heap.push(Reverse((key, i)));
            }
        }
        Ok(())
    }

    /// The smallest remaining key with its newest entry. Every source
    /// holding that key moves on by exactly one entry, so older versions
    /// are dropped while a source repeating a key yields it again.
    fn next_entry(&mut self) -> NkvResult<Option<MergeEntry<'a>>> {
        let Some(Reverse((key, newest))) = self.heap.pop() else { return Ok(None) };
        self.consumed.push(newest);
        while let Some(&Reverse((k, i))) = self.heap.peek() {
            if k != key {
                break;
            }
            self.heap.pop();
            self.consumed.push(i);
        }
        let record = self.heads[newest];
        self.refill()?;
        Ok(Some((key, record)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sst::search_block;
    use cosmos_sim::FlashConfig;

    const REC: usize = 20;

    fn rec(key: u64, tag: u8) -> Vec<u8> {
        let mut v = key.to_le_bytes().to_vec();
        v.resize(REC, tag);
        v
    }

    struct Fixture {
        flash: FlashArray,
        alloc: PageAllocator,
        lsm: LsmTree,
    }

    fn fixture() -> Fixture {
        let flash = FlashArray::new(FlashConfig::default());
        let alloc = PageAllocator::new(flash.config());
        let cfg = LsmConfig { memtable_bytes: 16 * 1024, ..LsmConfig::default() };
        let lsm = LsmTree::new("t", REC, cfg, 7);
        Fixture { flash, alloc, lsm }
    }

    /// Full GET through the fixture (memtable, then SSTs in recency
    /// order) — the reference read path used by these tests.
    fn get(fx: &mut Fixture, key: u64) -> Option<Vec<u8>> {
        match fx.lsm.memtable_get(key) {
            Some(Entry::Value(v)) => return Some(v.clone()),
            Some(Entry::Tombstone) => return None,
            None => {}
        }
        let ssts: Vec<SstMeta> = fx.lsm.candidate_ssts(key).into_iter().cloned().collect();
        for sst in ssts {
            if sst.is_tombstoned(key) {
                return None;
            }
            if !sst.may_contain(key) {
                continue;
            }
            if let Some(bi) = sst.block_for(key) {
                let (_, data) = read_block(&mut fx.flash, &sst, bi, 0).unwrap();
                if let Some(r) = search_block(&data, REC, key).unwrap() {
                    return Some(r.to_vec());
                }
            }
        }
        None
    }

    #[test]
    fn put_get_through_memtable() {
        let mut fx = fixture();
        fx.lsm.put(42, rec(42, 1));
        assert_eq!(get(&mut fx, 42), Some(rec(42, 1)));
        assert_eq!(get(&mut fx, 43), None);
    }

    #[test]
    fn flush_moves_data_to_c1_and_preserves_gets() {
        let mut fx = fixture();
        for k in 1..=500u64 {
            fx.lsm.put(k, rec(k, 1));
        }
        fx.lsm.flush(&mut fx.flash, &mut fx.alloc, 0).unwrap();
        assert_eq!(fx.lsm.memtable().len(), 0);
        assert_eq!(fx.lsm.level_sizes()[0], 1);
        for k in [1u64, 250, 500] {
            assert_eq!(get(&mut fx, k), Some(rec(k, 1)));
        }
        assert_eq!(get(&mut fx, 501), None);
    }

    #[test]
    fn newer_flush_shadows_older_version() {
        let mut fx = fixture();
        fx.lsm.put(7, rec(7, 1));
        fx.lsm.flush(&mut fx.flash, &mut fx.alloc, 0).unwrap();
        fx.lsm.put(7, rec(7, 2));
        fx.lsm.flush(&mut fx.flash, &mut fx.alloc, 0).unwrap();
        // Two SSTs in C1, both holding key 7; the newest version wins.
        assert_eq!(fx.lsm.level_sizes()[0], 2);
        assert_eq!(get(&mut fx, 7), Some(rec(7, 2)));
        assert_eq!(fx.lsm.persistent_records(), 2, "no compaction on flush");
    }

    #[test]
    fn tombstone_shadows_flushed_value() {
        let mut fx = fixture();
        fx.lsm.put(9, rec(9, 1));
        fx.lsm.flush(&mut fx.flash, &mut fx.alloc, 0).unwrap();
        fx.lsm.delete(9);
        assert_eq!(get(&mut fx, 9), None, "memtable tombstone shadows");
        fx.lsm.flush(&mut fx.flash, &mut fx.alloc, 0).unwrap();
        assert_eq!(get(&mut fx, 9), None, "flushed tombstone shadows");
    }

    #[test]
    fn should_flush_reflects_memtable_size() {
        let mut fx = fixture();
        assert!(!fx.lsm.should_flush());
        for k in 0..2000u64 {
            fx.lsm.put(k, rec(k, 0));
        }
        assert!(fx.lsm.should_flush());
    }

    #[test]
    fn compaction_merges_newest_wins_and_purges() {
        let mut fx = fixture();
        // Three generations of key 5, latest deleted.
        fx.lsm.put(5, rec(5, 1));
        fx.lsm.put(6, rec(6, 1));
        fx.lsm.flush(&mut fx.flash, &mut fx.alloc, 0).unwrap();
        fx.lsm.put(5, rec(5, 2));
        fx.lsm.flush(&mut fx.flash, &mut fx.alloc, 0).unwrap();
        fx.lsm.delete(6);
        fx.lsm.put(8, rec(8, 3));
        fx.lsm.flush(&mut fx.flash, &mut fx.alloc, 0).unwrap();

        fx.lsm.compact(&mut fx.flash, &mut fx.alloc, 0, 0).unwrap();
        assert_eq!(fx.lsm.level_sizes()[0], 0);
        assert_eq!(fx.lsm.level_sizes()[1], 1);
        // Outdated version of 5 purged; 6's tombstone purged at bottom.
        assert_eq!(fx.lsm.persistent_records(), 2); // keys 5 and 8
        assert_eq!(get(&mut fx, 5), Some(rec(5, 2)));
        assert_eq!(get(&mut fx, 6), None);
        assert_eq!(get(&mut fx, 8), Some(rec(8, 3)));
    }

    #[test]
    fn compaction_above_populated_levels_keeps_tombstones() {
        let mut fx = fixture();
        // Seed the bottom: key 6 lives in level 2 (via two compactions).
        fx.lsm.put(6, rec(6, 1));
        fx.lsm.flush(&mut fx.flash, &mut fx.alloc, 0).unwrap();
        fx.lsm.compact(&mut fx.flash, &mut fx.alloc, 0, 0).unwrap();
        fx.lsm.compact(&mut fx.flash, &mut fx.alloc, 1, 0).unwrap();
        assert_eq!(fx.lsm.level_sizes()[2], 1);
        // Now delete 6 and compact only C1 into C2.
        fx.lsm.delete(6);
        fx.lsm.flush(&mut fx.flash, &mut fx.alloc, 0).unwrap();
        fx.lsm.compact(&mut fx.flash, &mut fx.alloc, 0, 0).unwrap();
        // The tombstone must survive in level 1 to shadow level 2.
        assert_eq!(get(&mut fx, 6), None);
        // ... and a further compaction to the bottom purges everything.
        fx.lsm.compact(&mut fx.flash, &mut fx.alloc, 1, 0).unwrap();
        assert_eq!(get(&mut fx, 6), None);
        assert_eq!(fx.lsm.persistent_records(), 0);
    }

    #[test]
    fn compaction_splits_oversized_merges_into_several_ssts() {
        // Drive a merge across several roll-over boundaries of the
        // output run and verify the multi-SST output serves every
        // record.
        let mut fx = fixture();
        // 64-byte blocks -> 3 records per block -> 192 records per
        // output SST, so 500 records split into three SSTs.
        let cfg = LsmConfig { memtable_bytes: 16 * 1024, block_bytes: 64, ..LsmConfig::default() };
        fx.lsm = LsmTree::new("t", REC, cfg, 7);
        for k in 1..=500u64 {
            fx.lsm.put(k, rec(k, 1));
        }
        fx.lsm.flush(&mut fx.flash, &mut fx.alloc, 0).unwrap();
        fx.lsm.compact(&mut fx.flash, &mut fx.alloc, 0, 0).unwrap();
        assert!(
            fx.lsm.level_sizes()[1] >= 3,
            "merge must split into multiple SSTs: {:?}",
            fx.lsm.level_sizes()
        );
        for k in [1u64, 192, 193, 384, 385, 500] {
            assert_eq!(get(&mut fx, k), Some(rec(k, 1)), "key {k}");
        }
    }

    #[test]
    fn merge_yields_each_key_once_with_the_newest_entry() {
        let recs: Vec<Vec<u8>> = (0..6u8).map(|tag| rec(u64::from(tag), tag)).collect();
        let source = |entries: Vec<(u64, Option<usize>)>| -> MergeSource<'_> {
            Box::new(entries.into_iter().map(|(k, r)| Ok((k, r.map(|i| recs[i].as_slice())))))
        };
        let mut merge = Merge::new(vec![
            source(vec![(2, Some(0)), (5, None)]),               // newest
            source(vec![(1, Some(1)), (2, None), (9, Some(2))]), // its tombstones ...
            source(vec![(2, Some(3)), (5, Some(4)), (9, Some(5))]), // oldest
            source(vec![]),
        ])
        .unwrap();
        let mut out = Vec::new();
        while let Some((key, record)) = merge.next_entry().unwrap() {
            out.push((key, record.map(|r| r[REC - 1])));
        }
        assert_eq!(out, vec![(1, Some(1)), (2, Some(0)), (5, None), (9, Some(2))]);

        // A source repeating a key keeps every copy (each round moves a
        // source on by one entry): nothing is dropped silently, the run
        // writer is the one to reject it.
        let mut merge =
            Merge::new(vec![source(vec![(4, Some(0)), (4, Some(1))]), source(vec![(4, Some(2))])])
                .unwrap();
        let mut out = Vec::new();
        while let Some((key, record)) = merge.next_entry().unwrap() {
            out.push((key, record.map(|r| r[REC - 1])));
        }
        assert_eq!(out, vec![(4, Some(0)), (4, Some(1))]);
    }

    #[test]
    fn a_rejected_bulk_load_leaves_the_levels_unchanged() {
        // Four blocks per SST: the run has rolled over (and programmed
        // pages) before the bad record arrives, yet nothing is installed.
        let cfg = LsmConfig { block_bytes: 64, ..LsmConfig::default() };
        for bad in [rec(5, 9), vec![0u8; REC + 4]] {
            let mut fx = fixture();
            fx.lsm = LsmTree::new("t", REC, cfg.clone(), 7);
            let load = |keys: std::ops::RangeInclusive<u64>| keys.map(|k| rec(k, 1));
            fx.lsm.bulk_load(&mut fx.flash, &mut fx.alloc, load(1..=10), false, 0).unwrap();
            let before = fx.lsm.level_sizes();
            let programmed = fx.flash.op_counts().1;
            let records = load(20_000..=27_000).chain([bad]);
            let err =
                fx.lsm.bulk_load(&mut fx.flash, &mut fx.alloc, records, false, 0).unwrap_err();
            assert!(
                matches!(
                    err,
                    NkvError::UnsortedBulkLoad { .. } | NkvError::RecordSizeMismatch { .. }
                ),
                "{err:?}"
            );
            assert_eq!(fx.lsm.level_sizes(), before);
            assert!(fx.flash.op_counts().1 > programmed, "the aborted run is a torn SST");
            assert_eq!(get(&mut fx, 7), Some(rec(7, 1)));
            assert_eq!(get(&mut fx, 20_000), None);
        }
    }

    #[test]
    fn compaction_retires_its_input_ssts() {
        let mut fx = fixture();
        fx.lsm.put(1, rec(1, 1));
        fx.lsm.flush(&mut fx.flash, &mut fx.alloc, 0).unwrap();
        fx.lsm.put(2, rec(2, 1));
        fx.lsm.flush(&mut fx.flash, &mut fx.alloc, 0).unwrap();
        let mut inputs: Vec<u64> = fx.lsm.all_ssts().iter().map(|s| s.id).collect();
        inputs.sort_unstable();
        assert!(fx.lsm.take_retired().is_empty(), "flush retires nothing");
        fx.lsm.compact(&mut fx.flash, &mut fx.alloc, 0, 0).unwrap();
        let mut retired = fx.lsm.take_retired();
        retired.sort_unstable();
        assert_eq!(retired, inputs, "both compaction inputs are retired");
        assert!(fx.lsm.take_retired().is_empty(), "drain empties the list");
    }

    #[test]
    fn candidate_ssts_orders_by_recency() {
        let mut fx = fixture();
        for gen in 0..3u8 {
            fx.lsm.put(10, rec(10, gen));
            fx.lsm.flush(&mut fx.flash, &mut fx.alloc, 0).unwrap();
        }
        let cands = fx.lsm.candidate_ssts(10);
        assert_eq!(cands.len(), 3);
        // Newest flush has the highest SST id and must come first.
        assert!(cands[0].id > cands[1].id && cands[1].id > cands[2].id);
    }

    #[test]
    fn random_workload_matches_btreemap_model() {
        let mut rng = ndp_workload::SplitMix64::new(0xFEED);
        let mut fx = fixture();
        let mut model = std::collections::BTreeMap::new();
        for step in 0..3000u32 {
            let key = rng.gen_range_u64(1, 200);
            if rng.gen_bool(0.8) {
                let r = rec(key, (step % 251) as u8);
                fx.lsm.put(key, r.clone());
                model.insert(key, r);
            } else {
                fx.lsm.delete(key);
                model.remove(&key);
            }
            if fx.lsm.should_flush() {
                fx.lsm.flush(&mut fx.flash, &mut fx.alloc, 0).unwrap();
            }
            if fx.lsm.should_compact(0) {
                fx.lsm.compact(&mut fx.flash, &mut fx.alloc, 0, 0).unwrap();
            }
        }
        for key in 1..200u64 {
            assert_eq!(get(&mut fx, key), model.get(&key).cloned(), "key {key}");
        }
    }

    #[test]
    fn all_ssts_recency_covers_every_level() {
        let mut fx = fixture();
        for k in 1..=100u64 {
            fx.lsm.put(k, rec(k, 1));
        }
        fx.lsm.flush(&mut fx.flash, &mut fx.alloc, 0).unwrap();
        fx.lsm.compact(&mut fx.flash, &mut fx.alloc, 0, 0).unwrap();
        for k in 101..=200u64 {
            fx.lsm.put(k, rec(k, 2));
        }
        fx.lsm.flush(&mut fx.flash, &mut fx.alloc, 0).unwrap();
        let all = fx.lsm.all_ssts();
        assert_eq!(all.len(), 2);
        assert!(all[0].level <= 1, "C1 SSTs come before deeper levels");
    }
}
