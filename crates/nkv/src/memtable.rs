//! The in-memory component `C0`: a skip-list memtable.
//!
//! "The MemTables in C0 are typically implemented using a
//! memory-efficient structure such as skip-lists" (paper, Sec. III-A).
//! This is a classic single-writer skip-list over `u64` keys holding
//! fixed-size record payloads or tombstones; tower heights come from a
//! deterministic xorshift so tests are reproducible.

/// An entry: a full record or a deletion marker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Entry {
    /// A live record (packed bytes, key at offset 0).
    Value(Vec<u8>),
    /// A tombstone shadowing older versions of the key.
    Tombstone,
}

const MAX_HEIGHT: usize = 12;

struct Node {
    key: u64,
    entry: Entry,
    /// next[i] = index of the next node at level i (usize::MAX = none).
    next: [usize; MAX_HEIGHT],
}

/// A skip-list memtable.
pub struct MemTable {
    nodes: Vec<Node>,
    /// head.next per level.
    head: [usize; MAX_HEIGHT],
    height: usize,
    rng: u64,
    /// Approximate payload bytes (records + per-entry overhead).
    bytes: usize,
}

const NIL: usize = usize::MAX;

impl MemTable {
    /// An empty memtable with a deterministic tower-height seed.
    pub fn new(seed: u64) -> Self {
        Self { nodes: Vec::new(), head: [NIL; MAX_HEIGHT], height: 1, rng: seed | 1, bytes: 0 }
    }

    fn random_height(&mut self) -> usize {
        // xorshift64*; each extra level with probability 1/4.
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        let r = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
        let mut h = 1;
        let mut bits = r;
        while h < MAX_HEIGHT && bits & 3 == 0 {
            h += 1;
            bits >>= 2;
        }
        h
    }

    /// Find the predecessor chain for `key`; returns per-level indices of
    /// the last node with a key `< key` (or NIL for the head).
    fn predecessors(&self, key: u64) -> [usize; MAX_HEIGHT] {
        let mut preds = [NIL; MAX_HEIGHT];
        let mut cur = NIL; // head
        for level in (0..self.height).rev() {
            loop {
                let next = if cur == NIL { self.head[level] } else { self.nodes[cur].next[level] };
                if next != NIL && self.nodes[next].key < key {
                    cur = next;
                } else {
                    break;
                }
            }
            preds[level] = cur;
        }
        preds
    }

    /// Insert or replace `key` with a record.
    pub fn put(&mut self, key: u64, record: Vec<u8>) {
        self.insert_entry(key, Entry::Value(record));
    }

    /// Insert a tombstone for `key`.
    pub(crate) fn delete(&mut self, key: u64) {
        self.insert_entry(key, Entry::Tombstone);
    }

    fn insert_entry(&mut self, key: u64, entry: Entry) {
        let preds = self.predecessors(key);
        let at = if preds[0] == NIL { self.head[0] } else { self.nodes[preds[0]].next[0] };
        if at != NIL && self.nodes[at].key == key {
            // Replace in place (updates are out-of-place only across
            // components, not inside C0).
            let old = std::mem::replace(&mut self.nodes[at].entry, entry);
            self.bytes -= entry_bytes(&old);
            self.bytes += entry_bytes(&self.nodes[at].entry);
            return;
        }

        let h = self.random_height();
        let idx = self.nodes.len();
        self.bytes += entry_bytes(&entry) + 48; // payload + node overhead
        let mut node = Node { key, entry, next: [NIL; MAX_HEIGHT] };
        for (level, &pred) in preds.iter().enumerate().take(h) {
            if level >= self.height {
                node.next[level] = NIL;
                self.head[level] = idx;
            } else if pred == NIL {
                node.next[level] = self.head[level];
                self.head[level] = idx;
            } else {
                node.next[level] = self.nodes[pred].next[level];
                // placed after push below
            }
        }
        self.nodes.push(node);
        for (level, &pred) in preds.iter().enumerate().take(h.min(self.height)) {
            if pred != NIL {
                self.nodes[pred].next[level] = idx;
            }
        }
        self.height = self.height.max(h);
    }

    /// Look up `key`.
    pub(crate) fn get(&self, key: u64) -> Option<&Entry> {
        let preds = self.predecessors(key);
        let at = if preds[0] == NIL { self.head[0] } else { self.nodes[preds[0]].next[0] };
        if at != NIL && self.nodes[at].key == key {
            Some(&self.nodes[at].entry)
        } else {
            None
        }
    }

    /// Iterate entries in ascending key order.
    pub(crate) fn iter(&self) -> MemIter<'_> {
        MemIter { table: self, cur: self.head[0] }
    }

    /// Approximate memory footprint in bytes (drives flush decisions).
    pub(crate) fn approximate_bytes(&self) -> usize {
        self.bytes
    }

    /// Number of entries (including tombstones).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the table holds no entries at all.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

fn entry_bytes(e: &Entry) -> usize {
    match e {
        Entry::Value(v) => v.len(),
        Entry::Tombstone => 0,
    }
}

/// Sorted iterator over a memtable.
pub struct MemIter<'a> {
    table: &'a MemTable,
    cur: usize,
}

impl<'a> Iterator for MemIter<'a> {
    type Item = (u64, &'a Entry);

    fn next(&mut self) -> Option<Self::Item> {
        if self.cur == NIL {
            return None;
        }
        let n = &self.table.nodes[self.cur];
        self.cur = n.next[0];
        Some((n.key, &n.entry))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(key: u64) -> Vec<u8> {
        let mut v = key.to_le_bytes().to_vec();
        v.extend_from_slice(&[0xAB; 12]);
        v
    }

    fn live_entries(m: &MemTable) -> usize {
        m.iter().filter(|(_, e)| matches!(e, Entry::Value(_))).count()
    }

    #[test]
    fn put_get_round_trip() {
        let mut m = MemTable::new(7);
        m.put(5, rec(5));
        m.put(1, rec(1));
        m.put(9, rec(9));
        assert_eq!(m.get(5), Some(&Entry::Value(rec(5))));
        assert_eq!(m.get(2), None);
        assert_eq!(m.len(), 3);
        assert_eq!(live_entries(&m), 3);
    }

    #[test]
    fn replace_updates_in_place() {
        let mut m = MemTable::new(7);
        m.put(5, rec(5));
        let mut newer = rec(5);
        newer[8] = 0xFF;
        m.put(5, newer.clone());
        assert_eq!(m.get(5), Some(&Entry::Value(newer)));
        assert_eq!(m.len(), 1, "replacement must not add nodes");
    }

    #[test]
    fn tombstones_shadow_values() {
        let mut m = MemTable::new(7);
        m.put(5, rec(5));
        m.delete(5);
        assert_eq!(m.get(5), Some(&Entry::Tombstone));
        assert_eq!(live_entries(&m), 0);
        // Deleting a missing key still records the tombstone (it must
        // shadow versions in deeper components).
        m.delete(77);
        assert_eq!(m.get(77), Some(&Entry::Tombstone));
    }

    #[test]
    fn iteration_is_key_sorted() {
        let mut m = MemTable::new(3);
        let keys = [44u64, 2, 999, 17, 3, 500, 1, 88, 6];
        for &k in &keys {
            m.put(k, rec(k));
        }
        let got: Vec<u64> = m.iter().map(|(k, _)| k).collect();
        let mut want = keys.to_vec();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn large_insert_stays_sorted_and_complete() {
        let mut m = MemTable::new(0xDEAD);
        // Insert in an adversarial (descending) order.
        for k in (0..5000u64).rev() {
            m.put(k, rec(k));
        }
        assert_eq!(m.len(), 5000);
        let got: Vec<u64> = m.iter().map(|(k, _)| k).collect();
        assert!(got.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(got.len(), 5000);
        for k in (0..5000).step_by(97) {
            assert!(m.get(k).is_some());
        }
    }

    #[test]
    fn approximate_bytes_grows_and_tracks_replacement() {
        let mut m = MemTable::new(1);
        let before = m.approximate_bytes();
        m.put(1, vec![0u8; 100]);
        let after_one = m.approximate_bytes();
        assert!(after_one >= before + 100);
        m.put(1, vec![0u8; 10]);
        assert!(m.approximate_bytes() < after_one);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = MemTable::new(42);
        let mut b = MemTable::new(42);
        for k in 0..100 {
            a.put(k, rec(k));
            b.put(k, rec(k));
        }
        assert_eq!(a.height, b.height);
    }
}
