//! The in-memory component `C0`: a sorted map from key to entry.
//!
//! "The MemTables in C0 are typically implemented using a
//! memory-efficient structure such as skip-lists" (paper, Sec. III-A).
//! The simulated firmware's `C0` is priced by constants (a probe costs
//! `ARM_MEMTABLE_PROBE_NS`, the scan pass the per-byte filter rate, an
//! insert nothing), so no simulated time depends on its structure: the
//! host holds it in std's ordered map.

use std::collections::BTreeMap;

/// An entry: a full record or a deletion marker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Entry {
    /// A live record (packed bytes, key at offset 0).
    Value(Vec<u8>),
    /// A tombstone shadowing older versions of the key.
    Tombstone,
}

/// Entries in key order, and the byte count that triggers a flush.
#[derive(Default)]
pub struct MemTable {
    entries: BTreeMap<u64, Entry>,
    /// Payload bytes plus 48 per entry.
    bytes: usize,
}

impl MemTable {
    /// An empty memtable; `_seed` is ignored (the benchmark's kernels pass one).
    pub fn new(_seed: u64) -> Self {
        Self::default()
    }

    /// Insert or replace `key` with a record.
    pub fn put(&mut self, key: u64, record: Vec<u8>) {
        self.insert_entry(key, Entry::Value(record));
    }

    /// Insert a tombstone for `key`.
    pub(crate) fn delete(&mut self, key: u64) {
        self.insert_entry(key, Entry::Tombstone);
    }

    /// A new key adds its payload + 48 bytes; a replacement (in place:
    /// `C0` holds one version of a key) swaps the old payload for the new.
    fn insert_entry(&mut self, key: u64, entry: Entry) {
        let payload = |e: &Entry| if let Entry::Value(v) = e { v.len() } else { 0 };
        self.bytes += payload(&entry);
        match self.entries.insert(key, entry) {
            Some(old) => self.bytes -= payload(&old),
            None => self.bytes += 48,
        }
    }

    /// Look up `key`.
    pub(crate) fn get(&self, key: u64) -> Option<&Entry> {
        self.entries.get(&key)
    }

    /// Entries in ascending key order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &Entry)> {
        self.entries.iter().map(|(&k, e)| (k, e))
    }

    /// The smallest and largest key, tombstones included.
    pub(crate) fn key_range(&self) -> Option<(u64, u64)> {
        Some((*self.entries.first_key_value()?.0, *self.entries.last_key_value()?.0))
    }

    /// Approximate memory footprint in bytes (drives flush decisions).
    pub(crate) fn approximate_bytes(&self) -> usize {
        self.bytes
    }

    /// Number of entries (including tombstones).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the table holds no entries at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
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
        let mut m = MemTable::default();
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
        let mut m = MemTable::default();
        m.put(5, rec(5));
        let mut newer = rec(5);
        newer[8] = 0xFF;
        m.put(5, newer.clone());
        assert_eq!(m.get(5), Some(&Entry::Value(newer)));
        assert_eq!(m.len(), 1, "replacement must not add nodes");
    }

    #[test]
    fn tombstones_shadow_values() {
        let mut m = MemTable::default();
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
        let mut m = MemTable::default();
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
        let mut m = MemTable::default();
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
        let mut m = MemTable::default();
        let before = m.approximate_bytes();
        m.put(1, vec![0u8; 100]);
        let after_one = m.approximate_bytes();
        assert!(after_one >= before + 100);
        m.put(1, vec![0u8; 10]);
        assert!(m.approximate_bytes() < after_one);
    }
}
