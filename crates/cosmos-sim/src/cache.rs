//! Device-DRAM block cache.
//!
//! `repro profile` shows a hardware SCAN keeps the flash controllers
//! ~99 % occupied — every repeated query re-streams the same SST pages
//! over the ~200 MB/s flash channels while the platform's DRAM
//! (1 GB/s, mostly staging buffers) sits idle. This module spends a
//! fixed DRAM budget on recently read SST **data blocks and index
//! pages** so repeated reads are served from DRAM instead of flash.
//!
//! The cache is pure storage + bookkeeping; *timing* stays where all
//! other timing lives: a hit replaces the flash read and its
//! flash-DMA staging transfer with one DRAM-port burst
//! ([`crate::dram::DramClient::CacheHit`]), charged by the executor
//! through the ordinary shared-port model, so hits are cheaper but
//! never free and still contend with PE load/store traffic.
//!
//! **Storage** is the reader's own [`SharedBytes`] handle: admission
//! keeps the view a block read returned (usually a view of the buffer
//! the block's flash pages share), and a hit hands out another handle to
//! it. Neither copies a byte; the byte budget still counts every entry's
//! full length, as if it were a private copy in device DRAM.
//!
//! **Replacement** is a segmented LRU: entries are admitted into a
//! *probationary* segment and promoted to the *protected* segment on
//! their first hit (scan-resistant — a one-pass streaming SCAN cannot
//! flush the hot set). The protected segment is capped at 3/4 of the
//! byte budget; overflow demotes the oldest protected entry back to
//! probationary. Victims are probationary-LRU first, protected-LRU
//! only when no probationary entry remains. Recency is a strictly
//! increasing touch sequence, so victim selection is deterministic
//! regardless of hash-map iteration order; each segment keeps its
//! entries in that order (an ordered map for the probationary one, a
//! queue for the protected one, whose entries always arrive newest), so
//! a victim is found without a scan.
//!
//! **Correctness** is the caller's invalidation contract: SSTs are
//! immutable on flash and the page allocator never reuses pages, so a
//! cached entry can only go stale when an SST id is retired
//! (compaction) or its pages are relocated (read-repair). `nkv` evicts
//! those ids via [`BlockCache::evict_sst`]; everything else —
//! memtable-first reads, version reconciliation — already happens
//! *above* the block reads this cache serves, so the cached path is
//! byte-identical to the uncached path by construction.
//!
//! Like faults, tracing, metrics and queues, the cache follows the
//! zero-cost-when-disabled idiom: the platform holds an
//! `Option<BlockCache>` and every consult site is one branch.

use crate::bytes::SharedBytes;
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Pseudo block index under which an SST's index page is cached
/// (data blocks use their ordinary block index).
pub const INDEX_BLOCK: usize = usize::MAX;

/// Counters the cache keeps. Conservation invariant (tested):
/// `hits + misses == lookups`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Block lookups issued while the cache was enabled.
    pub lookups: u64,
    /// Lookups served from DRAM.
    pub hits: u64,
    /// Lookups that went to flash.
    pub misses: u64,
    /// Blocks admitted (probationary).
    pub insertions: u64,
    /// Blocks evicted to make room.
    pub evictions: u64,
    /// Blocks dropped by explicit invalidation (compaction/read-repair).
    pub invalidations: u64,
    /// Bytes served from DRAM instead of flash.
    pub hit_bytes: u64,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]` (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

#[derive(Debug, Clone)]
struct Entry {
    data: SharedBytes,
    /// Strictly increasing touch sequence — unique, so LRU victim
    /// selection is deterministic under any map iteration order.
    touched: u64,
    protected: bool,
}

/// A cached entry's key.
type Key = (u64, usize);

/// The protected queue is pruned once it holds more than this many
/// records per cached entry. A prune checks every record, so a hit pays
/// `1 + 1 / (PRUNE_FACTOR - 1)` staleness checks amortized.
const PRUNE_FACTOR: usize = 4;

/// Fixed-budget segmented-LRU cache over `(sst_id, block)` keys.
#[derive(Debug, Clone, Default)]
pub struct BlockCache {
    budget: usize,
    /// Byte cap of the protected segment (3/4 of the budget).
    protected_cap: usize,
    used: usize,
    protected_used: usize,
    seq: u64,
    map: HashMap<Key, Entry>,
    /// The probationary segment's recency index: touch sequence → key,
    /// oldest first. An entry arrives with a fresh sequence (admission)
    /// or an old one (demotion), so this is an ordered map, not a queue.
    probationary: BTreeMap<u64, Key>,
    /// The protected segment's recency index: `(touched, key)` in touch
    /// order, oldest first. An entry only ever arrives with a fresh
    /// sequence (a hit), so a touch appends. The record it supersedes,
    /// and that of an entry since demoted or dropped, stays behind as
    /// stale (see `live`) until it reaches the front or the queue
    /// outgrows [`PRUNE_FACTOR`] records per entry and is pruned.
    protected: VecDeque<(u64, Key)>,
    stats: CacheStats,
}

impl BlockCache {
    /// An empty cache bounded to `budget_bytes` of DRAM.
    pub fn new(budget_bytes: usize) -> Self {
        Self {
            budget: budget_bytes,
            protected_cap: budget_bytes - budget_bytes / 4,
            ..Self::default()
        }
    }

    /// The byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget
    }

    /// Bytes currently cached.
    #[cfg(test)]
    pub(crate) fn used_bytes(&self) -> usize {
        self.used
    }

    /// Number of cached blocks.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Counters since construction.
    pub(crate) fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Whether `(sst_id, block)` is cached, without touching recency
    /// or counters (tests/diagnostics).
    pub fn contains(&self, sst_id: u64, block: usize) -> bool {
        self.map.contains_key(&(sst_id, block))
    }

    /// Whether a protected-queue record still names a protected entry
    /// as of its latest touch.
    fn live(map: &HashMap<Key, Entry>, (touched, key): (u64, Key)) -> bool {
        map.get(&key).is_some_and(|e| e.protected && e.touched == touched)
    }

    /// Drop an entry from the map and unaccount it; its protected-queue
    /// record, if any, goes stale.
    fn remove(&mut self, key: &Key) -> Option<Entry> {
        let e = self.map.remove(key)?;
        self.used -= e.data.len();
        if e.protected {
            self.protected_used -= e.data.len();
        } else {
            self.probationary.remove(&e.touched);
        }
        Some(e)
    }

    /// Look `(sst_id, block)` up; a hit promotes the entry to the
    /// protected segment and returns its bytes (clone the handle to keep
    /// them; that copies nothing).
    pub fn lookup(&mut self, sst_id: u64, block: usize) -> Option<&SharedBytes> {
        self.stats.lookups += 1;
        let key = (sst_id, block);
        let Some(e) = self.map.get_mut(&key) else {
            self.stats.misses += 1;
            return None;
        };
        self.stats.hits += 1;
        self.seq += 1;
        let (len, was_protected, touched) = (e.data.len(), e.protected, e.touched);
        e.touched = self.seq;
        e.protected = true;
        self.stats.hit_bytes += len as u64;
        self.protected.push_back((self.seq, key));
        if self.protected.len() > PRUNE_FACTOR * self.map.len() {
            let map = &self.map;
            self.protected.retain(|&r| Self::live(map, r));
        }
        if !was_protected {
            self.probationary.remove(&touched);
            self.protected_used += len;
            self.demote_overflow(key);
        }
        self.map.get(&key).map(|e| &e.data)
    }

    /// Admit `(sst_id, block)` into the probationary segment, evicting
    /// LRU entries until it fits. Blocks larger than the whole budget
    /// are not admitted; re-inserting an existing key replaces it.
    pub fn insert(&mut self, sst_id: u64, block: usize, data: impl Into<SharedBytes>) {
        let data = data.into();
        if data.len() > self.budget {
            return;
        }
        let key = (sst_id, block);
        self.remove(&key);
        while self.used + data.len() > self.budget {
            self.evict_one();
        }
        self.seq += 1;
        self.used += data.len();
        self.stats.insertions += 1;
        self.probationary.insert(self.seq, key);
        self.map.insert(key, Entry { data, touched: self.seq, protected: false });
    }

    /// Drop every cached block of `sst_id` (data and index). Called
    /// when compaction retires the SST or read-repair relocates its
    /// pages. Returns how many entries were invalidated.
    pub(crate) fn evict_sst(&mut self, sst_id: u64) -> u64 {
        let keys: Vec<Key> = self.map.keys().filter(|k| k.0 == sst_id).copied().collect();
        for k in &keys {
            self.remove(k);
        }
        self.stats.invalidations += keys.len() as u64;
        keys.len() as u64
    }

    /// The protected LRU entry, unless it is `keep`; its record leaves
    /// the queue (stale records before it go too).
    fn pop_protected(&mut self, keep: Option<Key>) -> Option<Key> {
        while let Some(&(touched, key)) = self.protected.front() {
            if Self::live(&self.map, (touched, key)) {
                if Some(key) == keep {
                    return None;
                }
                self.protected.pop_front();
                return Some(key);
            }
            self.protected.pop_front();
        }
        None
    }

    /// Demote protected-LRU entries (other than the freshly promoted
    /// `keep`) until the protected segment fits its cap again. `keep`
    /// was touched last, so it is the oldest protected entry only when
    /// it is the only one.
    fn demote_overflow(&mut self, keep: Key) {
        while self.protected_used > self.protected_cap {
            let Some(k) = self.pop_protected(Some(keep)) else { break };
            let e = self.map.get_mut(&k).expect("a live record names a cached entry");
            e.protected = false;
            self.protected_used -= e.data.len();
            self.probationary.insert(e.touched, k);
        }
    }

    /// Evict one block: probationary LRU first, protected LRU only
    /// when the probationary segment is empty.
    fn evict_one(&mut self) {
        let victim = match self.probationary.first_key_value() {
            Some((_, &k)) => Some(k),
            None => self.pop_protected(None),
        };
        if let Some(k) = victim {
            self.remove(&k);
            self.stats.evictions += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit_and_counter_conservation() {
        let mut c = BlockCache::new(1 << 20);
        assert!(c.lookup(1, 0).is_none());
        c.insert(1, 0, vec![7; 100]);
        assert_eq!(&c.lookup(1, 0).unwrap()[..], &[7; 100][..]);
        assert!(c.lookup(1, 1).is_none());
        let s = c.stats();
        assert_eq!(s.lookups, 3);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        assert_eq!(s.hits + s.misses, s.lookups);
        assert_eq!(s.hit_bytes, 100);
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn budget_is_enforced_and_probationary_evicts_first() {
        let mut c = BlockCache::new(300);
        c.insert(1, 0, vec![0; 100]);
        c.insert(1, 1, vec![0; 100]);
        c.insert(1, 2, vec![0; 100]);
        // Promote blocks 0 and 2 to the protected segment.
        assert!(c.lookup(1, 0).is_some());
        assert!(c.lookup(1, 2).is_some());
        // A new admission must evict the only probationary entry (1).
        c.insert(2, 0, vec![0; 100]);
        assert!(c.contains(1, 0));
        assert!(!c.contains(1, 1), "probationary LRU is the victim");
        assert!(c.contains(1, 2));
        assert!(c.contains(2, 0));
        assert_eq!(c.used_bytes(), 300);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn protected_lru_falls_back_when_no_probationary_left() {
        let mut c = BlockCache::new(200);
        c.insert(1, 0, vec![0; 100]);
        c.insert(1, 1, vec![0; 100]);
        assert!(c.lookup(1, 0).is_some());
        assert!(c.lookup(1, 1).is_some());
        // Both are protected (150-byte cap demotes the older, block 0,
        // back to probationary) — the admission evicts exactly one.
        c.insert(2, 0, vec![0; 100]);
        assert_eq!(c.len(), 2);
        assert!(!c.contains(1, 0), "oldest entry is the victim");
        assert!(c.contains(1, 1));
        assert!(c.contains(2, 0));
    }

    #[test]
    fn oversized_blocks_are_not_admitted() {
        let mut c = BlockCache::new(64);
        c.insert(1, 0, vec![0; 65]);
        assert!(c.is_empty());
        assert_eq!(c.stats().insertions, 0);
    }

    #[test]
    fn evict_sst_invalidates_data_and_index_entries() {
        let mut c = BlockCache::new(1 << 20);
        c.insert(1, 0, vec![0; 10]);
        c.insert(1, 1, vec![0; 10]);
        c.insert(1, INDEX_BLOCK, vec![0; 10]);
        c.insert(2, 0, vec![0; 10]);
        assert_eq!(c.evict_sst(1), 3);
        assert_eq!(c.len(), 1);
        assert!(c.contains(2, 0));
        assert_eq!(c.stats().invalidations, 3);
        assert_eq!(c.used_bytes(), 10);
        assert_eq!(c.evict_sst(99), 0, "unknown SSTs invalidate nothing");
    }

    #[test]
    fn reinsert_replaces_without_double_accounting() {
        let mut c = BlockCache::new(1 << 10);
        c.insert(1, 0, vec![0; 100]);
        assert!(c.lookup(1, 0).is_some()); // protected now
        c.insert(1, 0, vec![1; 200]);
        assert_eq!(c.used_bytes(), 200);
        assert_eq!(&c.lookup(1, 0).unwrap()[..], &[1; 200][..]);
    }

    #[test]
    fn hits_share_the_admitted_bytes() {
        let mut c = BlockCache::new(1 << 10);
        let block = SharedBytes::zero_padded(b"block", 64);
        c.insert(1, 0, block.clone());
        let hit = c.lookup(1, 0).unwrap();
        assert_eq!(hit.as_ptr(), block.as_ptr(), "a hit is the admitted view, not a copy");
        assert_eq!(c.used_bytes(), 64, "the budget counts the full length");
    }

    /// The scanning implementation the recency indexes replaced: each
    /// victim is the minimum `touched` of a filtered scan of the whole
    /// map. The reference [`BlockCache`] is replayed against.
    #[derive(Default)]
    struct Scanning {
        budget: usize,
        protected_cap: usize,
        used: usize,
        protected_used: usize,
        seq: u64,
        map: HashMap<(u64, usize), Entry>,
        stats: CacheStats,
    }

    impl Scanning {
        fn new(budget: usize) -> Self {
            Self { budget, protected_cap: budget - budget / 4, ..Self::default() }
        }

        fn lookup(&mut self, sst_id: u64, block: usize) -> Option<&SharedBytes> {
            self.stats.lookups += 1;
            let key = (sst_id, block);
            if !self.map.contains_key(&key) {
                self.stats.misses += 1;
                return None;
            }
            self.stats.hits += 1;
            self.seq += 1;
            let seq = self.seq;
            let (len, was_protected) = {
                let e = self.map.get_mut(&key).expect("checked above");
                e.touched = seq;
                let wp = e.protected;
                e.protected = true;
                (e.data.len(), wp)
            };
            self.stats.hit_bytes += len as u64;
            if !was_protected {
                self.protected_used += len;
                self.demote_overflow(key);
            }
            Some(&self.map[&key].data)
        }

        fn insert(&mut self, sst_id: u64, block: usize, data: SharedBytes) {
            if data.len() > self.budget {
                return;
            }
            let key = (sst_id, block);
            if let Some(old) = self.map.remove(&key) {
                self.used -= old.data.len();
                if old.protected {
                    self.protected_used -= old.data.len();
                }
            }
            while self.used + data.len() > self.budget {
                self.evict_one();
            }
            self.seq += 1;
            self.used += data.len();
            self.stats.insertions += 1;
            self.map.insert(key, Entry { data, touched: self.seq, protected: false });
        }

        fn evict_sst(&mut self, sst_id: u64) -> u64 {
            let keys: Vec<(u64, usize)> =
                self.map.keys().filter(|k| k.0 == sst_id).copied().collect();
            for k in &keys {
                let e = self.map.remove(k).expect("key collected above");
                self.used -= e.data.len();
                if e.protected {
                    self.protected_used -= e.data.len();
                }
            }
            self.stats.invalidations += keys.len() as u64;
            keys.len() as u64
        }

        fn demote_overflow(&mut self, keep: (u64, usize)) {
            while self.protected_used > self.protected_cap {
                let victim = self
                    .map
                    .iter()
                    .filter(|(k, e)| e.protected && **k != keep)
                    .min_by_key(|(_, e)| e.touched)
                    .map(|(k, _)| *k);
                let Some(k) = victim else { break };
                let e = self.map.get_mut(&k).expect("victim exists");
                e.protected = false;
                self.protected_used -= e.data.len();
            }
        }

        fn evict_one(&mut self) {
            let victim = self
                .map
                .iter()
                .filter(|(_, e)| !e.protected)
                .min_by_key(|(_, e)| e.touched)
                .map(|(k, _)| *k)
                .or_else(|| self.map.iter().min_by_key(|(_, e)| e.touched).map(|(k, _)| *k));
            let Some(k) = victim else { return };
            let e = self.map.remove(&k).expect("victim exists");
            self.used -= e.data.len();
            if e.protected {
                self.protected_used -= e.data.len();
            }
            self.stats.evictions += 1;
        }
    }

    /// Residency, recency and segment of every entry, sorted by key.
    type Snapshot = Vec<((u64, usize), u64, bool, usize)>;

    fn snapshot(map: &HashMap<(u64, usize), Entry>) -> Snapshot {
        let mut s: Snapshot =
            map.iter().map(|(&k, e)| (k, e.touched, e.protected, e.data.len())).collect();
        s.sort_unstable();
        s
    }

    /// `c` agrees with the reference, and each segment's recency index
    /// holds exactly that segment's entries under their touch sequence.
    fn assert_agrees(c: &BlockCache, r: &Scanning, step: &str) {
        assert_eq!(snapshot(&c.map), snapshot(&r.map), "residency after {step}");
        assert_eq!(c.stats, r.stats, "stats after {step}");
        assert_eq!((c.used, c.protected_used, c.seq), (r.used, r.protected_used, r.seq), "{step}");
        let mut from_index: Vec<_> = c.probationary.iter().map(|(&t, &k)| (k, t, false)).collect();
        let live: Vec<_> =
            c.protected.iter().filter(|&&r| BlockCache::live(&c.map, r)).copied().collect();
        assert!(live.windows(2).all(|w| w[0].0 < w[1].0), "protected queue order after {step}");
        from_index.extend(live.into_iter().map(|(t, k)| (k, t, true)));
        from_index.sort_unstable();
        let entries: Vec<_> = snapshot(&c.map).into_iter().map(|(k, t, p, _)| (k, t, p)).collect();
        assert_eq!(from_index, entries, "recency indexes after {step}");
    }

    #[test]
    fn recency_indexes_replay_the_scanning_reference() {
        // splitmix64: a seeded trace without a dependency.
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut kept_alone = 0;
        for budget in [400, 1000, 4096] {
            let (mut c, mut r) = (BlockCache::new(budget), Scanning::new(budget));
            let mut peak = 0;
            for step in 0..4000 {
                let roll = next();
                let sst = roll % 5;
                let block = match (roll >> 8) % 9 {
                    8 => INDEX_BLOCK,
                    b => b as usize,
                };
                // Mostly small blocks, sometimes one too big to share the
                // protected segment (the `keep` case), rarely one over
                // the whole budget (not admitted).
                let len = match (roll >> 16) % 16 {
                    0 => budget * 4 / 5,
                    1 => budget + 1,
                    _ => 10 + ((roll >> 24) % 120) as usize,
                };
                let what = match (roll >> 40) % 10 {
                    0..=4 => {
                        let (a, b) = (c.lookup(sst, block).cloned(), r.lookup(sst, block).cloned());
                        assert_eq!(a.as_deref(), b.as_deref(), "hit bytes at step {step}");
                        if a.is_some() && c.protected_used > c.protected_cap {
                            kept_alone += 1;
                        }
                        "lookup"
                    }
                    5..=8 => {
                        let data = SharedBytes::from(vec![(roll >> 48) as u8; len]);
                        c.insert(sst, block, data.clone());
                        r.insert(sst, block, data);
                        "insert"
                    }
                    _ => {
                        assert_eq!(c.evict_sst(sst), r.evict_sst(sst), "step {step}");
                        "evict_sst"
                    }
                };
                assert_agrees(&c, &r, &format!("{what} of ({sst}, {block}) at step {step}"));
                // Pruning keeps the stale records of the protected queue
                // bounded by the entries the cache has held.
                peak = peak.max(c.map.len());
                assert!(
                    c.protected.len() <= PRUNE_FACTOR * peak + 1,
                    "protected queue at step {step}"
                );
            }
        }
        assert!(kept_alone > 0, "the trace never reached `demote_overflow`'s keep case");
    }
}
