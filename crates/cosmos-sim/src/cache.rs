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
//! regardless of hash-map iteration order.
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
use std::collections::HashMap;

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

/// Fixed-budget segmented-LRU cache over `(sst_id, block)` keys.
#[derive(Debug, Clone, Default)]
pub struct BlockCache {
    budget: usize,
    /// Byte cap of the protected segment (3/4 of the budget).
    protected_cap: usize,
    used: usize,
    protected_used: usize,
    seq: u64,
    map: HashMap<(u64, usize), Entry>,
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
    pub fn used_bytes(&self) -> usize {
        self.used
    }

    /// Number of cached blocks.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Counters since construction.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Whether `(sst_id, block)` is cached, without touching recency
    /// or counters (tests/diagnostics).
    pub fn contains(&self, sst_id: u64, block: usize) -> bool {
        self.map.contains_key(&(sst_id, block))
    }

    /// Look `(sst_id, block)` up; a hit promotes the entry to the
    /// protected segment and returns its bytes (clone the handle to keep
    /// them; that copies nothing).
    pub fn lookup(&mut self, sst_id: u64, block: usize) -> Option<&SharedBytes> {
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

    /// Admit `(sst_id, block)` into the probationary segment, evicting
    /// LRU entries until it fits. Blocks larger than the whole budget
    /// are not admitted; re-inserting an existing key replaces it.
    pub fn insert(&mut self, sst_id: u64, block: usize, data: impl Into<SharedBytes>) {
        let data = data.into();
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

    /// Drop every cached block of `sst_id` (data and index). Called
    /// when compaction retires the SST or read-repair relocates its
    /// pages. Returns how many entries were invalidated.
    pub fn evict_sst(&mut self, sst_id: u64) -> u64 {
        let keys: Vec<(u64, usize)> = self.map.keys().filter(|k| k.0 == sst_id).copied().collect();
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

    /// Demote protected-LRU entries (other than the freshly promoted
    /// `keep`) until the protected segment fits its cap again.
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

    /// Evict one block: probationary LRU first, protected LRU only
    /// when the probationary segment is empty.
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
}
