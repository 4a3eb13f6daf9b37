//! Physical data placement.
//!
//! nKV controls where data lands in flash: "By distributing data on
//! independent Flash channels and LUNs, nKV facilitates parallel access
//! and processing of data. Moreover, keeping the data of different
//! LSM-tree index components separated on different Flash chips avoids
//! blocking of the entire bus by compaction jobs" (paper, Sec. III-B).
//!
//! The allocator stripes consecutive pages of a block across the LUNs of
//! one channel (overlapping tR), stripes consecutive *blocks* across
//! channels (parallel scans), and partitions LUNs between LSM levels.

use crate::sst::SstMeta;
use cosmos_sim::{FlashConfig, PhysAddr};

/// Allocates physical pages for SST blocks.
pub struct PageAllocator {
    channels: u16,
    luns: u16,
    pages_per_lun: u32,
    /// Next free page per (channel, lun).
    next_page: Vec<u32>,
    /// Round-robin channel cursor per level class.
    cursor: Vec<u16>,
    /// Last SST id handed out. Every SST of every table passes through
    /// this allocator, so ids are unique per device — which the block
    /// cache, batched GETs and retirement rely on: they key on the id.
    last_sst_id: u64,
}

/// How many level classes get separated LUN groups (level 0/1 hot vs
/// deeper cold levels).
const LEVEL_CLASSES: usize = 2;

impl PageAllocator {
    /// Build an allocator for the given flash geometry.
    pub fn new(cfg: &FlashConfig) -> Self {
        Self {
            channels: cfg.channels,
            luns: cfg.luns_per_channel,
            pages_per_lun: cfg.pages_per_lun,
            next_page: vec![0; usize::from(cfg.channels) * usize::from(cfg.luns_per_channel)],
            cursor: vec![0; LEVEL_CLASSES],
            last_sst_id: 0,
        }
    }

    /// Hand out the next device-unique SST id.
    pub(crate) fn alloc_sst_id(&mut self) -> u64 {
        self.last_sst_id += 1;
        self.last_sst_id
    }

    /// The last SST id handed out (or recovered): every SST born later
    /// has a higher one.
    pub(crate) fn last_sst_id(&self) -> u64 {
        self.last_sst_id
    }

    fn class_of(level: usize) -> usize {
        usize::from(level > 1)
    }

    /// LUN range assigned to a level class: hot levels use the lower
    /// half of each channel's LUNs, cold levels the upper half, so a
    /// compaction streaming cold data never parks the hot LUNs.
    fn lun_range(&self, class: usize) -> (u16, u16) {
        let half = (self.luns / 2).max(1);
        if class == 0 || self.luns < 2 {
            (0, half)
        } else {
            (half, self.luns)
        }
    }

    /// Allocate `n` pages for one block of an SST at `level`, striped
    /// across the LUNs of a single channel. Consecutive calls rotate
    /// channels so consecutive blocks land on different channels.
    /// Returns `None` when flash is exhausted.
    pub fn alloc_block(&mut self, level: usize, n: usize) -> Option<Vec<PhysAddr>> {
        let class = Self::class_of(level);
        let (lun_lo, lun_hi) = self.lun_range(class);
        let lun_count = lun_hi - lun_lo;
        // Try every channel starting at the cursor.
        for attempt in 0..self.channels {
            let channel = (self.cursor[class] + attempt) % self.channels;
            // Stripe the n pages over the class's LUNs of this channel.
            let mut pages = Vec::with_capacity(n);
            let mut ok = true;
            // Snapshot next_page so a failed attempt does not leak pages.
            let base: Vec<u32> =
                (lun_lo..lun_hi).map(|l| self.next_page[self.slot(channel, l)]).collect();
            let mut next = base.clone();
            for i in 0..n {
                let li = (i as u16) % lun_count;
                let lun = lun_lo + li;
                let page = next[usize::from(li)];
                if page >= self.pages_per_lun {
                    ok = false;
                    break;
                }
                next[usize::from(li)] += 1;
                pages.push(PhysAddr { channel, lun, page });
            }
            if ok {
                for (li, &np) in next.iter().enumerate() {
                    let slot = self.slot(channel, lun_lo + li as u16);
                    self.next_page[slot] = np;
                }
                self.cursor[class] = (channel + 1) % self.channels;
                return Some(pages);
            }
        }
        None
    }

    /// Mark a page as in use (recovery: advance the watermark past every
    /// page referenced by recovered metadata).
    pub(crate) fn mark_used(&mut self, addr: PhysAddr) {
        let slot = self.slot(addr.channel, addr.lun);
        if addr.page >= self.next_page[slot] {
            self.next_page[slot] = addr.page + 1;
        }
    }

    /// Recovery: advance the page watermarks and the id source past
    /// everything a recovered SST occupies.
    pub(crate) fn mark_sst(&mut self, sst: &SstMeta) {
        self.last_sst_id = self.last_sst_id.max(sst.id);
        sst.pages().for_each(|p| self.mark_used(p));
    }

    fn slot(&self, channel: u16, lun: u16) -> usize {
        usize::from(channel) * usize::from(self.luns) + usize::from(lun)
    }

    /// Free pages remaining (approximate, for diagnostics).
    #[cfg(test)]
    pub(crate) fn free_pages(&self) -> u64 {
        self.next_page.iter().map(|&used| u64::from(self.pages_per_lun - used)).sum()
    }
}

/// Which of `workers` parallel scan streams owns flash channel
/// `channel`: channels are split into contiguous groups, one group per
/// worker (the allocator stripes consecutive blocks across channels, so
/// contiguous groups balance block counts). With more workers than
/// channels the extra workers simply receive no channels.
pub(crate) fn worker_for_channel(channel: u16, channels: u16, workers: usize) -> usize {
    let channels = usize::from(channels).max(1);
    let workers = workers.max(1);
    (usize::from(channel) * workers / channels).min(workers - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc() -> PageAllocator {
        PageAllocator::new(&FlashConfig::default())
    }

    #[test]
    fn block_pages_stripe_luns_of_one_channel() {
        let mut a = alloc();
        let pages = a.alloc_block(1, 4).unwrap();
        assert_eq!(pages.len(), 4);
        let ch = pages[0].channel;
        assert!(pages.iter().all(|p| p.channel == ch));
        let luns: std::collections::HashSet<u16> = pages.iter().map(|p| p.lun).collect();
        assert!(luns.len() > 1, "pages should spread over LUNs: {pages:?}");
    }

    #[test]
    fn consecutive_blocks_rotate_channels() {
        let mut a = alloc();
        let c1 = a.alloc_block(1, 4).unwrap()[0].channel;
        let c2 = a.alloc_block(1, 4).unwrap()[0].channel;
        let c3 = a.alloc_block(1, 4).unwrap()[0].channel;
        assert_ne!(c1, c2);
        assert_ne!(c2, c3);
    }

    #[test]
    fn hot_and_cold_levels_use_disjoint_luns() {
        let mut a = alloc();
        let hot = a.alloc_block(1, 8).unwrap();
        let cold = a.alloc_block(3, 8).unwrap();
        let hot_luns: std::collections::HashSet<u16> = hot.iter().map(|p| p.lun).collect();
        let cold_luns: std::collections::HashSet<u16> = cold.iter().map(|p| p.lun).collect();
        assert!(hot_luns.is_disjoint(&cold_luns), "hot {hot_luns:?} vs cold {cold_luns:?}");
    }

    #[test]
    fn allocations_never_overlap() {
        let mut a = alloc();
        let mut seen = std::collections::HashSet::new();
        for level in [0usize, 1, 2, 5] {
            for _ in 0..50 {
                for p in a.alloc_block(level, 4).unwrap() {
                    assert!(seen.insert(p), "page {p:?} allocated twice");
                }
            }
        }
    }

    #[test]
    fn exhaustion_returns_none() {
        let cfg = FlashConfig {
            channels: 2,
            luns_per_channel: 2,
            pages_per_lun: 4,
            ..FlashConfig::default()
        };
        let mut a = PageAllocator::new(&cfg);
        let mut got = 0;
        while a.alloc_block(0, 2).is_some() {
            got += 1;
            assert!(got < 100, "allocator never exhausts");
        }
        // Hot class = lower half of LUNs = 1 LUN per channel × 4 pages
        // × 2 channels = 8 pages = 4 blocks of 2.
        assert_eq!(got, 4);
    }

    #[test]
    fn mark_used_advances_watermark() {
        let mut a = alloc();
        a.mark_used(cosmos_sim::PhysAddr { channel: 3, lun: 1, page: 41 });
        // Subsequent allocations on that LUN start above the mark.
        for _ in 0..100 {
            if let Some(pages) = a.alloc_block(0, 4) {
                for p in pages {
                    assert!(
                        !(p.channel == 3 && p.lun == 1 && p.page <= 41),
                        "allocated over recovered data: {p:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn free_pages_decreases() {
        let mut a = alloc();
        let before = a.free_pages();
        a.alloc_block(0, 4).unwrap();
        assert_eq!(a.free_pages(), before - 4);
    }

    #[test]
    fn worker_partition_is_contiguous_and_balanced() {
        // 8 channels over 4 workers: pairs {0,1} {2,3} {4,5} {6,7}.
        let owners: Vec<usize> = (0..8).map(|c| worker_for_channel(c, 8, 4)).collect();
        assert_eq!(owners, vec![0, 0, 1, 1, 2, 2, 3, 3]);
        // One worker owns everything.
        assert!((0..8).all(|c| worker_for_channel(c, 8, 1) == 0));
        // Workers beyond the channel count stay within bounds.
        for c in 0..8 {
            assert!(worker_for_channel(c, 8, 16) < 16);
        }
        // Every channel maps to a valid worker for odd splits too.
        for w in 1..=5usize {
            for c in 0..8 {
                assert!(worker_for_channel(c, 8, w) < w);
            }
        }
    }
}
