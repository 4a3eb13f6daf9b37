//! Sorted String Tables on physical flash.
//!
//! Each SST consists of key-sorted **data blocks** (32 KiB, whole
//! fixed-size records, CRC-32C protected) plus an **index block**
//! (paper, Sec. III-A: "Each SST in turn is composed by an index block
//! and a number of data blocks"). The index — block key ranges, physical
//! page addresses, a bloom filter and the tombstone list — is serialized
//! to flash pages and also kept in memory as the device-resident accessor
//! state that nKV's native computational storage maintains.
//!
//! Data blocks are exactly what the PEs consume: a dense array of packed
//! tuples, no headers, no record framing — the format-awareness lives in
//! the generated accessors, not in per-record envelopes.

use crate::error::{NkvError, NkvResult};
use crate::placement::PageAllocator;
use crate::util::{crc32c, Bloom};
use cosmos_sim::{FlashArray, PhysAddr, SharedBytes, SimNs};

/// Metadata of one data block.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockMeta {
    pub(crate) first_key: u64,
    pub(crate) last_key: u64,
    /// Physical pages holding this block, in order.
    pub(crate) pages: Vec<PhysAddr>,
    /// Payload bytes (whole records; the rest of the block is padding).
    pub(crate) bytes: u32,
    /// CRC-32C over the payload.
    pub(crate) crc: u32,
}

/// In-memory (and flash-serialized) SST metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct SstMeta {
    pub id: u64,
    pub level: usize,
    pub record_bytes: usize,
    pub n_records: u64,
    pub min_key: u64,
    pub max_key: u64,
    pub blocks: Vec<BlockMeta>,
    /// Pages of the serialized index block.
    pub(crate) index_pages: Vec<PhysAddr>,
    pub(crate) bloom: Bloom,
    /// Deleted keys this SST shadows (sorted).
    pub(crate) tombstones: Vec<u64>,
}

impl SstMeta {
    /// Might this SST contain `key`? (range + bloom check)
    pub fn may_contain(&self, key: u64) -> bool {
        if self.n_records == 0 && self.tombstones.is_empty() {
            return false;
        }
        key >= self.min_key && key <= self.max_key && self.bloom.may_contain(key)
    }

    /// Is `key` tombstoned by this SST?
    pub fn is_tombstoned(&self, key: u64) -> bool {
        self.tombstones.binary_search(&key).is_ok()
    }

    /// Index of the data block whose range covers `key`, if any.
    pub fn block_for(&self, key: u64) -> Option<usize> {
        let idx = self.blocks.partition_point(|b| b.last_key < key);
        (idx < self.blocks.len() && self.blocks[idx].first_key <= key).then_some(idx)
    }
}

/// Shape of one run of SSTs: where it is placed and when it rolls over.
#[derive(Debug, Clone, Copy)]
pub struct RunShape<'a> {
    pub table: &'a str,
    /// Placement level of every SST of the run (1-based: `C1` = 1).
    pub level: usize,
    pub record_bytes: usize,
    /// Data block size (32 KiB in the paper).
    pub block_bytes: usize,
    /// Entries (records + tombstones) after which the run rolls over
    /// into a fresh SST.
    pub entries_per_sst: usize,
    /// Allow non-decreasing (rather than strictly ascending) keys:
    /// multi-record tables such as edge lists store several records per
    /// key (lookups then return the first match; see `nkv::db` docs).
    pub allow_duplicates: bool,
}

/// The one way an SST reaches flash: streams ascending entries into a
/// run of SSTs, programming each data block the moment it seals and each
/// index block when its SST rolls over or the run finishes. Everything is
/// issued at `now`; only the open block (plus the open SST's keys, for
/// its bloom filter) is buffered. The caller installs the SSTs returned
/// by [`Self::finish`]; a run dropped earlier leaves programmed but
/// unreferenced pages behind, like a torn SST.
pub struct RunWriter<'a> {
    flash: &'a mut FlashArray,
    alloc: &'a mut PageAllocator,
    now: SimNs,
    shape: RunShape<'a>,
    done: SimNs,
    ssts: Vec<SstMeta>,
    last_key: Option<u64>,
    /// A data block padded to whole pages, the room the open block
    /// reserves when its first record arrives.
    block_span: usize,
    /// The open block and its key range.
    block: Vec<u8>,
    block_first: u64,
    block_last: u64,
    /// The open SST: sealed blocks, records so far, every key (records
    /// and tombstones, for the bloom filter and the roll-over count).
    blocks: Vec<BlockMeta>,
    n_records: u64,
    keys: Vec<u64>,
    tombstones: Vec<u64>,
}

impl<'a> RunWriter<'a> {
    /// Start a run issued at `now`.
    pub fn new(
        flash: &'a mut FlashArray,
        alloc: &'a mut PageAllocator,
        now: SimNs,
        shape: RunShape<'a>,
    ) -> Self {
        assert!(shape.record_bytes >= 8, "records start with a u64 key");
        assert!(shape.block_bytes >= shape.record_bytes);
        let block_span = shape.block_bytes.next_multiple_of(flash.config().page_bytes as usize);
        Self {
            flash,
            alloc,
            now,
            shape,
            done: now,
            ssts: Vec::new(),
            last_key: None,
            block_span,
            block: Vec::new(),
            block_first: 0,
            block_last: 0,
            blocks: Vec::new(),
            n_records: 0,
            keys: Vec::new(),
            tombstones: Vec::new(),
        }
    }

    /// Append a record (`Some`, keys ascending over the whole run) or a
    /// deletion the open SST shadows (`None`, in any order).
    pub fn add(&mut self, key: u64, record: Option<&[u8]>) -> NkvResult<()> {
        let RunShape { table, record_bytes, block_bytes, allow_duplicates, .. } = self.shape;
        let Some(record) = record else {
            self.tombstones.push(key);
            return self.count(key);
        };
        if record.len() != record_bytes {
            return Err(NkvError::RecordSizeMismatch {
                table: table.to_string(),
                expected: record_bytes,
                got: record.len(),
            });
        }
        if let Some(prev) = self.last_key {
            if key < prev || (key == prev && !allow_duplicates) {
                return Err(NkvError::UnsortedBulkLoad {
                    table: table.to_string(),
                    prev,
                    next: key,
                });
            }
        }
        self.last_key = Some(key);
        if self.block.is_empty() {
            self.block.reserve(self.block_span);
            self.block_first = key;
        }
        self.block.extend_from_slice(record);
        self.block_last = key;
        self.n_records += 1;
        if self.block.len() + record_bytes > block_bytes {
            self.seal_block()?;
        }
        self.count(key)
    }

    /// Count `key` into the open SST; roll over when it is full.
    fn count(&mut self, key: u64) -> NkvResult<()> {
        self.keys.push(key);
        if self.keys.len() >= self.shape.entries_per_sst {
            self.finish_sst()?;
        }
        Ok(())
    }

    /// Program the open block. Its buffer moves into flash with its CRC
    /// ([`program_pages`]), so a later read of the block can share it and
    /// need not recompute the CRC ([`read_block`]).
    fn seal_block(&mut self) -> NkvResult<()> {
        let (bytes, crc) = (self.block.len() as u32, crc32c(&self.block));
        let block = std::mem::take(&mut self.block);
        let (level, span) = (self.shape.level, self.block_span);
        let (pages, t) = place(self.flash, self.alloc, level, span, block, Some(crc), self.now)?;
        self.done = self.done.max(t);
        self.blocks.push(BlockMeta {
            first_key: self.block_first,
            last_key: self.block_last,
            pages,
            bytes,
            crc,
        });
        Ok(())
    }

    /// Seal the open SST: its last block, then its index block.
    fn finish_sst(&mut self) -> NkvResult<()> {
        if !self.block.is_empty() {
            self.seal_block()?;
        }
        let mut tombstones = std::mem::take(&mut self.tombstones);
        tombstones.sort_unstable();
        tombstones.dedup();
        let mut bloom = Bloom::new(self.keys.len(), 10);
        let (mut min_key, mut max_key) = (u64::MAX, 0);
        for &k in &self.keys {
            bloom.insert(k);
            min_key = min_key.min(k);
            max_key = max_key.max(k);
        }
        self.keys.clear();
        let mut meta = SstMeta {
            id: self.alloc.alloc_sst_id(),
            level: self.shape.level,
            record_bytes: self.shape.record_bytes,
            n_records: std::mem::take(&mut self.n_records),
            min_key,
            max_key,
            blocks: std::mem::take(&mut self.blocks),
            index_pages: Vec::new(),
            bloom,
            tombstones,
        };
        let t = write_index(self.flash, self.alloc, &mut meta, self.now)?;
        self.done = self.done.max(t);
        self.ssts.push(meta);
        Ok(())
    }

    /// Finish the run: the SSTs written, oldest first, and the simulated
    /// time the last page completes. An empty run writes nothing.
    pub fn finish(mut self) -> NkvResult<(Vec<SstMeta>, SimNs)> {
        if !self.keys.is_empty() {
            self.finish_sst()?;
        }
        Ok((self.ssts, self.done))
    }
}

/// Program `bytes` onto `pages`, every page issued at `now`; returns the
/// last completion. The buffer, zero-padded to whole pages, moves into
/// flash without a copy: each page is a page-sized view of it (pages
/// past the payload are programmed empty). `crc`, the CRC-32C the caller
/// computed over `bytes`, travels with the buffer ([`read_block`]).
pub(crate) fn program_pages(
    flash: &mut FlashArray,
    pages: &[PhysAddr],
    mut bytes: Vec<u8>,
    crc: Option<u32>,
    now: SimNs,
) -> NkvResult<SimNs> {
    let page_bytes = flash.config().page_bytes as usize;
    let len = bytes.len();
    bytes.resize(pages.len() * page_bytes, 0);
    // Flash keeps the buffer: no spare capacity stays alive with it.
    bytes.shrink_to_fit();
    let bytes = match crc {
        Some(crc) => SharedBytes::sealed(bytes, len, crc),
        None => SharedBytes::from(bytes),
    };
    let mut done = now;
    for (i, &page) in pages.iter().enumerate() {
        let view = bytes.slice(i * page_bytes..(i + 1) * page_bytes);
        let payload = len.saturating_sub(i * page_bytes).min(page_bytes);
        done = done.max(flash.program_shared(page, view, payload, now)?);
    }
    Ok(done)
}

/// Allocate one block of `span` bytes at `level` and program `bytes`
/// (with its `crc`, see [`program_pages`]) into it.
fn place(
    flash: &mut FlashArray,
    alloc: &mut PageAllocator,
    level: usize,
    span: usize,
    bytes: Vec<u8>,
    crc: Option<u32>,
    now: SimNs,
) -> NkvResult<(Vec<PhysAddr>, SimNs)> {
    let n_pages = span.div_ceil(flash.config().page_bytes as usize);
    let pages = alloc.alloc_block(level, n_pages).ok_or(NkvError::OutOfSpace)?;
    let done = program_pages(flash, &pages, bytes, crc, now)?;
    Ok((pages, done))
}

/// Serialize `meta`'s index block onto freshly allocated pages and point
/// `meta` at them; returns the completion time.
pub(crate) fn write_index(
    flash: &mut FlashArray,
    alloc: &mut PageAllocator,
    meta: &mut SstMeta,
    now: SimNs,
) -> NkvResult<SimNs> {
    let index = serialize_index(meta);
    let (pages, done) = place(flash, alloc, meta.level, index.len(), index, None, now)?;
    meta.index_pages = pages;
    Ok(done)
}

/// Read one data block's payload; verifies the CRC. Every page is read
/// through the flash array (its timing, fault rolls and counters). While
/// the pages read are consecutive views of one buffer — as
/// [`RunWriter`] programs them — the payload is a view of that buffer,
/// not a copy; a page programmed on its own since (relocated, rewritten)
/// makes it a concatenated copy.
///
/// **The integrity rule.** The payload must match `BlockMeta::crc`. It
/// is checked one of two ways, and [`SharedBytes::recorded_crc`] of the
/// returned payload tells which (`Some`: compared, `None`: recomputed).
///
/// * *Compared with the writer's record*: a view of exactly the range
///   [`RunWriter`] sealed. The writer computed the CRC of those bytes as
///   it moved them into flash (`program_pages`), the buffer is
///   immutable and CRC-32C is a pure function, so the O(1) compare gives
///   the verdict a recomputation would; a stale `BlockMeta::crc` still
///   fails it.
/// * *Recomputed*: everything else — a concatenated copy (a relocated,
///   rewritten or torn page), a sub-range of a sealed buffer (a
///   `BlockMeta::bytes` that disagrees with it), and a buffer with no
///   record (an index block, the manifest, a
///   [`FlashArray::program_page`] copy).
///
/// No modelled fault alters stored bytes. One that did would store a
/// fresh buffer, which carries no record, so its bytes are recomputed.
pub fn read_block(
    flash: &mut FlashArray,
    sst: &SstMeta,
    block_idx: usize,
    now: SimNs,
) -> NkvResult<(SimNs, SharedBytes)> {
    let block = &sst.blocks[block_idx];
    let (len, page_bytes) = (block.bytes as usize, flash.config().page_bytes as usize);
    // `Ok`: one view of the pages so far; `Err`: their concatenation.
    let mut data: Result<Option<SharedBytes>, Vec<u8>> = Ok(None);
    let mut have = 0;
    let mut done = now;
    for &p in &block.pages {
        let (t, page) = flash.read_page(p, now)?;
        done = done.max(t);
        let piece = page.slice(0..page_bytes.min(len - have));
        have += piece.len();
        data = match data {
            Ok(None) => Ok(Some(piece)),
            Ok(Some(view)) => {
                view.joined(&piece).map(Some).ok_or_else(|| [&view[..], &piece[..]].concat())
            }
            Err(mut copy) => {
                copy.extend_from_slice(&piece);
                Err(copy)
            }
        };
        if have >= len {
            break;
        }
    }
    let data = match data {
        Ok(view) => view.unwrap_or_else(|| SharedBytes::from(Vec::new())),
        Err(copy) => SharedBytes::from(copy),
    };
    if data.recorded_crc().unwrap_or_else(|| crc32c(&data)) != block.crc {
        return Err(NkvError::CorruptBlock { sst_id: sst.id, block: block_idx });
    }
    Ok((done, data))
}

/// Binary-search a data block for `key`; returns the record bytes.
///
/// Records shorter than their 8-byte key prefix (or a payload that does
/// not hold whole records) are corruption, not a caller bug — reported
/// as a typed error instead of panicking on the short slice.
pub fn search_block(data: &[u8], record_bytes: usize, key: u64) -> NkvResult<Option<&[u8]>> {
    if record_bytes < 8 {
        return Err(NkvError::Corrupt {
            what: "data block record (shorter than its u64 key)",
            offset: 0,
            need: 8,
            len: record_bytes,
        });
    }
    let n = data.len() / record_bytes;
    let (mut lo, mut hi) = (0usize, n);
    while lo < hi {
        let mid = (lo + hi) / 2;
        let off = mid * record_bytes;
        let k = crate::util::le_u64(data, off, "data block record key")?;
        match k.cmp(&key) {
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => hi = mid,
            std::cmp::Ordering::Equal => return Ok(Some(&data[off..off + record_bytes])),
        }
    }
    Ok(None)
}

/// Serialize the index block (manual little-endian layout; the format is
/// part of what this repository defines, see `util` docs).
pub fn serialize_index(meta: &SstMeta) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(b"NKVS");
    out.extend_from_slice(&1u32.to_le_bytes()); // version
    out.extend_from_slice(&meta.id.to_le_bytes());
    out.extend_from_slice(&(meta.level as u32).to_le_bytes());
    out.extend_from_slice(&(meta.record_bytes as u32).to_le_bytes());
    out.extend_from_slice(&meta.n_records.to_le_bytes());
    out.extend_from_slice(&meta.min_key.to_le_bytes());
    out.extend_from_slice(&meta.max_key.to_le_bytes());
    out.extend_from_slice(&(meta.blocks.len() as u32).to_le_bytes());
    out.extend_from_slice(&(meta.tombstones.len() as u32).to_le_bytes());
    let (bloom_words, bloom_bits, bloom_k) = meta.bloom.to_parts();
    out.extend_from_slice(&(bloom_words.len() as u32).to_le_bytes());
    out.extend_from_slice(&bloom_bits.to_le_bytes());
    out.extend_from_slice(&bloom_k.to_le_bytes());
    for b in &meta.blocks {
        out.extend_from_slice(&b.first_key.to_le_bytes());
        out.extend_from_slice(&b.last_key.to_le_bytes());
        out.extend_from_slice(&b.bytes.to_le_bytes());
        out.extend_from_slice(&b.crc.to_le_bytes());
        out.extend_from_slice(&(b.pages.len() as u32).to_le_bytes());
        for p in &b.pages {
            out.extend_from_slice(&p.channel.to_le_bytes());
            out.extend_from_slice(&p.lun.to_le_bytes());
            out.extend_from_slice(&p.page.to_le_bytes());
        }
    }
    for t in &meta.tombstones {
        out.extend_from_slice(&t.to_le_bytes());
    }
    for w in meta.bloom.to_parts().0 {
        out.extend_from_slice(&w.to_le_bytes());
    }
    let crc = crc32c(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Parse a serialized index block back into metadata. The bloom filter
/// is serialized verbatim, so a deserialized index is fully equivalent to
/// the in-memory one — this is what device recovery rebuilds from
/// (see `nkv::recovery`).
pub fn deserialize_index(bytes: &[u8]) -> NkvResult<SstMeta> {
    // A tiny cursor: every truncated or malformed field is reported as
    // a typed `NkvError::Corrupt` naming the field, never a panic.
    let corrupt = |what: &'static str, offset: usize, need: usize| NkvError::Corrupt {
        what,
        offset,
        need,
        len: bytes.len(),
    };
    let u16_at = |pos: &mut usize, what| -> NkvResult<u16> {
        let v = crate::util::le_u16(bytes, *pos, what)?;
        *pos += 2;
        Ok(v)
    };
    let u32_at = |pos: &mut usize, what| -> NkvResult<u32> {
        let v = crate::util::le_u32(bytes, *pos, what)?;
        *pos += 4;
        Ok(v)
    };
    let u64_at = |pos: &mut usize, what| -> NkvResult<u64> {
        let v = crate::util::le_u64(bytes, *pos, what)?;
        *pos += 8;
        Ok(v)
    };
    if bytes.get(..4) != Some(&b"NKVS"[..]) {
        return Err(corrupt("SST index magic", 0, 4));
    }
    let mut pos = 4usize;
    let _version = u32_at(&mut pos, "SST index version")?;
    let id = u64_at(&mut pos, "SST index id")?;
    let level = u32_at(&mut pos, "SST index level")? as usize;
    let record_bytes = u32_at(&mut pos, "SST index record size")? as usize;
    let n_records = u64_at(&mut pos, "SST index record count")?;
    let min_key = u64_at(&mut pos, "SST index min key")?;
    let max_key = u64_at(&mut pos, "SST index max key")?;
    let n_blocks = u32_at(&mut pos, "SST index block count")? as usize;
    let n_tomb = u32_at(&mut pos, "SST index tombstone count")? as usize;
    let bloom_words = u32_at(&mut pos, "SST index bloom word count")? as usize;
    let bloom_bits = u64_at(&mut pos, "SST index bloom bits")?;
    let bloom_k = u32_at(&mut pos, "SST index bloom probes")?;
    if record_bytes < 8 {
        return Err(corrupt("SST index record size (below the 8-byte key)", pos, 8));
    }
    // Counts come from untrusted bytes: bound them by what the buffer
    // could possibly hold before reserving memory for them.
    let remaining = bytes.len().saturating_sub(pos);
    if n_blocks > remaining / 28 {
        return Err(corrupt("SST index block table", pos, n_blocks.saturating_mul(28)));
    }
    let mut blocks = Vec::with_capacity(n_blocks);
    for _ in 0..n_blocks {
        let first_key = u64_at(&mut pos, "SST block first key")?;
        let last_key = u64_at(&mut pos, "SST block last key")?;
        let bytes_len = u32_at(&mut pos, "SST block payload size")?;
        let crc = u32_at(&mut pos, "SST block CRC")?;
        let n_pages = u32_at(&mut pos, "SST block page count")? as usize;
        let page_room = bytes.len().saturating_sub(pos);
        if n_pages > page_room / 8 {
            return Err(corrupt("SST block page list", pos, n_pages.saturating_mul(8)));
        }
        let mut pages = Vec::with_capacity(n_pages);
        for _ in 0..n_pages {
            let channel = u16_at(&mut pos, "SST page channel")?;
            let lun = u16_at(&mut pos, "SST page LUN")?;
            let page = u32_at(&mut pos, "SST page number")?;
            pages.push(PhysAddr { channel, lun, page });
        }
        blocks.push(BlockMeta { first_key, last_key, pages, bytes: bytes_len, crc });
    }
    let tomb_room = bytes.len().saturating_sub(pos);
    if n_tomb > tomb_room / 8 {
        return Err(corrupt("SST tombstone list", pos, n_tomb.saturating_mul(8)));
    }
    let mut tombstones = Vec::with_capacity(n_tomb);
    for _ in 0..n_tomb {
        tombstones.push(u64_at(&mut pos, "SST tombstone key")?);
    }
    let bloom_room = bytes.len().saturating_sub(pos);
    if bloom_words > bloom_room / 8 {
        return Err(corrupt("SST bloom words", pos, bloom_words.saturating_mul(8)));
    }
    let mut words = Vec::with_capacity(bloom_words);
    for _ in 0..bloom_words {
        words.push(u64_at(&mut pos, "SST bloom word")?);
    }
    let crc_stored = u32_at(&mut pos, "SST index CRC trailer")?;
    if crc32c(&bytes[..pos - 4]) != crc_stored {
        return Err(corrupt("SST index CRC trailer (mismatch)", pos - 4, 4));
    }
    if words.len() as u64 * 64 != bloom_bits || bloom_k == 0 || bloom_k > 12 {
        return Err(corrupt("SST bloom geometry", pos, 0));
    }
    let bloom = Bloom::from_parts(words, bloom_bits, bloom_k);
    Ok(SstMeta {
        id,
        level,
        record_bytes,
        n_records,
        min_key,
        max_key,
        blocks,
        index_pages: Vec::new(),
        bloom,
        tombstones,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmos_sim::FlashConfig;

    fn record(key: u64, size: usize) -> Vec<u8> {
        let mut v = key.to_le_bytes().to_vec();
        v.resize(size, (key % 251) as u8);
        v
    }

    /// A run in 32 KiB blocks at placement level `level`, rolling over
    /// every `entries_per_sst` entries.
    fn shape(level: usize, record_bytes: usize, entries_per_sst: usize) -> RunShape<'static> {
        RunShape {
            table: "t",
            level,
            record_bytes,
            block_bytes: 32 * 1024,
            entries_per_sst,
            allow_duplicates: false,
        }
    }

    fn build(n: u64, record_bytes: usize) -> (FlashArray, SstMeta) {
        let mut flash = FlashArray::new(FlashConfig::default());
        let mut alloc = PageAllocator::new(flash.config());
        let mut run = RunWriter::new(&mut flash, &mut alloc, 0, shape(1, record_bytes, usize::MAX));
        for k in 1..=n {
            run.add(k * 2, Some(&record(k * 2, record_bytes))).unwrap();
        }
        let (mut ssts, _) = run.finish().unwrap();
        assert_eq!(ssts.len(), 1, "a run that never rolls over is one SST");
        (flash, ssts.remove(0))
    }

    /// The pinned input: 5 000 records with three tombstones dropped in
    /// out of key order.
    fn pinned_input() -> Vec<(u64, Option<Vec<u8>>)> {
        let mut entries = Vec::new();
        for k in 1..=5000u64 {
            match k {
                11 => entries.push((50_001, None)),
                3001 => entries.push((7, None)),
                4001 => entries.push((20_001, None)),
                _ => {}
            }
            entries.push((k * 2, Some(record(k * 2, 20))));
        }
        entries
    }

    /// Everything of a finished run that reaches flash or the clock,
    /// except the SST ids.
    fn render(ssts: &[SstMeta], done: SimNs, flash: &FlashArray) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        for sst in ssts {
            writeln!(
                s,
                "sst n={} min={} max={} tomb={:?}",
                sst.n_records, sst.min_key, sst.max_key, sst.tombstones
            )
            .unwrap();
            for b in &sst.blocks {
                writeln!(
                    s,
                    " block {}..{} bytes={} crc={:08x} pages={:?}",
                    b.first_key, b.last_key, b.bytes, b.crc, b.pages
                )
                .unwrap();
            }
            writeln!(s, " index pages={:?}", sst.index_pages).unwrap();
        }
        writeln!(s, "done={done} ops={:?}", flash.op_counts()).unwrap();
        s
    }

    #[test]
    fn flash_image_of_a_run_is_pinned() {
        // Recorded from the whole-SST builder this writer replaced (one
        // builder per SST, finished in turn): every block's key range,
        // payload size, CRC and page list, every index page list, the
        // completion time and the flash op counts — once as a single SST
        // and once rolling over into three.
        for (entries_per_sst, n_ssts, crc, done, ops) in [
            (usize::MAX, 1, 0xC35F_AF79u32, 2_378_360, (0, 17)),
            (2000, 3, 0xEFA5_F204, 2_134_565, (0, 23)),
        ] {
            let mut flash = FlashArray::new(FlashConfig::default());
            let mut alloc = PageAllocator::new(flash.config());
            let mut run = RunWriter::new(&mut flash, &mut alloc, 17, shape(3, 20, entries_per_sst));
            for (key, rec) in pinned_input() {
                run.add(key, rec.as_deref()).unwrap();
            }
            let (ssts, t) = run.finish().unwrap();
            assert_eq!((ssts.len(), t, flash.op_counts()), (n_ssts, done, ops));
            let image = render(&ssts, t, &flash);
            assert_eq!(crc32c(image.as_bytes()), crc, "flash image drifted:\n{image}");
            let ids: Vec<u64> = ssts.iter().map(|s| s.id).collect();
            assert_eq!(ids, (1..=n_ssts as u64).collect::<Vec<_>>(), "ids in write order");
        }
    }

    #[test]
    fn a_block_is_programmed_the_moment_it_seals() {
        // Only the open block is buffered: once a block's worth of
        // records plus one is added, that block's pages are on flash —
        // with the run neither finished nor rolled over.
        let mut flash = FlashArray::new(FlashConfig::default());
        let mut alloc = PageAllocator::new(flash.config());
        let per_block = 32 * 1024 / 20;
        let mut run = RunWriter::new(&mut flash, &mut alloc, 0, shape(1, 20, usize::MAX));
        for k in 1..=per_block as u64 + 1 {
            run.add(k, Some(&record(k, 20))).unwrap();
        }
        drop(run);
        let pages_per_block = (32 * 1024usize).div_ceil(flash.config().page_bytes as usize);
        assert_eq!(flash.op_counts(), (0, pages_per_block as u64));
    }

    #[test]
    fn writer_packs_whole_records_per_block() {
        let (_, meta) = build(5000, 20);
        // 32768 / 20 = 1638 records per block.
        assert_eq!(meta.blocks[0].bytes, 1638 * 20);
        assert_eq!(meta.n_records, 5000);
        assert_eq!(meta.blocks.len(), 4); // 1638*3 = 4914, +86 in block 4
        assert_eq!(meta.min_key, 2);
        assert_eq!(meta.max_key, 10_000);
    }

    #[test]
    fn block_ranges_partition_the_key_space() {
        let (_, meta) = build(5000, 20);
        for w in meta.blocks.windows(2) {
            assert!(w[0].last_key < w[1].first_key);
        }
        assert_eq!(meta.block_for(2), Some(0));
        assert_eq!(meta.block_for(10_000), Some(3));
        assert_eq!(meta.block_for(10_001), None);
        // A key between records still maps to the covering block (the
        // record search inside the block then misses).
        assert_eq!(meta.block_for(3), Some(0));
    }

    #[test]
    fn read_block_round_trips_and_search_finds_records() {
        let (mut flash, meta) = build(5000, 20);
        let (_, data) = read_block(&mut flash, &meta, 1, 0).unwrap();
        assert_eq!(data.len() as u32, meta.blocks[1].bytes);
        let key = meta.blocks[1].first_key + 2 * 2; // second record in block
        let rec = search_block(&data, 20, key).unwrap().unwrap();
        assert_eq!(rec, &record(key, 20)[..]);
        assert!(search_block(&data, 20, key + 1).unwrap().is_none());
    }

    #[test]
    fn search_block_reports_short_records_as_corruption() {
        let data = vec![0u8; 32];
        assert!(matches!(
            search_block(&data, 4, 1),
            Err(NkvError::Corrupt { need: 8, len: 4, .. })
        ));
    }

    #[test]
    fn crc_detects_flash_corruption() {
        let (mut flash, mut meta) = build(100, 20);
        meta.blocks[0].crc ^= 1; // simulate a stale/corrupt index entry
        let err = read_block(&mut flash, &meta, 0, 0).unwrap_err();
        assert!(matches!(err, NkvError::CorruptBlock { sst_id: 1, block: 0 }));
    }

    #[test]
    fn unsorted_and_duplicate_records_rejected() {
        let mut flash = FlashArray::new(FlashConfig::default());
        let mut alloc = PageAllocator::new(flash.config());
        let mut run = RunWriter::new(&mut flash, &mut alloc, 0, shape(1, 20, usize::MAX));
        run.add(10, Some(&record(10, 20))).unwrap();
        assert!(matches!(
            run.add(10, Some(&record(10, 20))),
            Err(NkvError::UnsortedBulkLoad { .. })
        ));
        assert!(matches!(run.add(5, Some(&record(5, 20))), Err(NkvError::UnsortedBulkLoad { .. })));
        // Multi-record tables take equal keys, still nothing descending.
        let dups = RunShape { allow_duplicates: true, ..shape(1, 20, usize::MAX) };
        let mut run = RunWriter::new(&mut flash, &mut alloc, 0, dups);
        run.add(10, Some(&record(10, 20))).unwrap();
        run.add(10, Some(&record(10, 20))).unwrap();
        assert!(matches!(
            run.add(9, Some(&record(9, 20))),
            Err(NkvError::UnsortedBulkLoad { prev: 10, next: 9, .. })
        ));
    }

    #[test]
    fn wrong_record_size_rejected() {
        let mut flash = FlashArray::new(FlashConfig::default());
        let mut alloc = PageAllocator::new(flash.config());
        let mut run = RunWriter::new(&mut flash, &mut alloc, 0, shape(1, 20, usize::MAX));
        assert!(matches!(
            run.add(1, Some(&record(1, 24))),
            Err(NkvError::RecordSizeMismatch { expected: 20, got: 24, .. })
        ));
    }

    #[test]
    fn bloom_and_range_pruning() {
        let (_, meta) = build(1000, 20);
        assert!(meta.may_contain(2));
        assert!(!meta.may_contain(1), "below min");
        assert!(!meta.may_contain(99_999), "above max");
        // Odd keys were never inserted; the bloom rejects almost all.
        let fp = (0..1000).map(|i| 2 * i + 1).filter(|&k| meta.may_contain(k)).count();
        assert!(fp < 40, "bloom too leaky: {fp}");
    }

    #[test]
    fn tombstones_are_sorted_and_searchable() {
        let mut flash = FlashArray::new(FlashConfig::default());
        let mut alloc = PageAllocator::new(flash.config());
        let mut run = RunWriter::new(&mut flash, &mut alloc, 0, shape(1, 20, usize::MAX));
        run.add(50, None).unwrap();
        run.add(10, Some(&record(10, 20))).unwrap();
        run.add(7, None).unwrap();
        let meta = run.finish().unwrap().0.remove(0);
        assert!(meta.is_tombstoned(7));
        assert!(meta.is_tombstoned(50));
        assert!(!meta.is_tombstoned(10));
        assert_eq!(meta.min_key, 7, "tombstones participate in the key range");
    }

    #[test]
    fn index_serialization_round_trips() {
        let (_, meta) = build(5000, 20);
        let bytes = serialize_index(&meta);
        let back = deserialize_index(&bytes).unwrap();
        assert_eq!(back.id, meta.id);
        assert_eq!(back.n_records, meta.n_records);
        assert_eq!(back.blocks, meta.blocks);
        assert_eq!(back.tombstones, meta.tombstones);
        assert_eq!(back.min_key, meta.min_key);
        assert_eq!(back.bloom, meta.bloom, "blooms round-trip exactly");
    }

    #[test]
    fn index_decodes_identically_under_trailing_page_padding() {
        // Recovery hands the decoder whole flash pages: the walk must
        // stop at its own CRC trailer whatever follows it.
        let (flash, meta) = build(5000, 20);
        let bytes = serialize_index(&meta);
        let bare = deserialize_index(&bytes).unwrap();
        for pad in [0, 1, 3, 4, flash.config().page_bytes as usize - 1] {
            let mut padded = bytes.clone();
            padded.resize(bytes.len() + pad, 0);
            assert_eq!(deserialize_index(&padded).unwrap(), bare, "{pad} bytes of padding");
        }
    }

    #[test]
    fn serialized_index_checksum_is_pinned() {
        // The on-flash format and the CRC kernel must not drift: this
        // constant was computed with the byte-at-a-time CRC loop. (The
        // CRC of body + trailer is the same residue for any body, so
        // the body's checksum is what gets pinned.)
        let (_, meta) = build(100, 20);
        let bytes = serialize_index(&meta);
        let (body, trailer) = bytes.split_at(bytes.len() - 4);
        assert_eq!(crc32c(body), 0x5CB6_4B3D);
        assert_eq!(trailer, 0x5CB6_4B3Du32.to_le_bytes());
    }

    #[test]
    fn index_deserialization_rejects_corruption() {
        let (_, meta) = build(100, 20);
        let mut bytes = serialize_index(&meta);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        assert!(deserialize_index(&bytes).is_err());
        assert!(deserialize_index(b"JUNK").is_err());
        assert!(deserialize_index(&[]).is_err());
    }

    #[test]
    fn truncated_index_pages_fail_typed_at_every_length() {
        // Fuzz corpus for the decode path: every proper prefix of a
        // valid index must come back as a typed error — never a panic,
        // never Ok (the CRC trailer is inside the truncated tail).
        // Recovery sees the same tear as a flash page: the prefix that
        // reached the cells, then zeros to the page boundary.
        let (flash, meta) = build(5000, 20);
        let bytes = serialize_index(&meta);
        let page_bytes = flash.config().page_bytes as usize;
        let mut torn_page = vec![0u8; bytes.len().next_multiple_of(page_bytes)];
        for cut in 0..bytes.len() {
            match deserialize_index(&bytes[..cut]) {
                Err(NkvError::Corrupt { .. } | NkvError::CorruptBlock { .. }) => {}
                other => panic!("prefix of {cut} bytes decoded as {other:?}"),
            }
            // Losing only zero bytes of the trailer is no tear at all.
            if bytes[cut..].iter().any(|&b| b != 0) {
                match deserialize_index(&torn_page) {
                    Err(NkvError::Corrupt { .. } | NkvError::CorruptBlock { .. }) => {}
                    other => panic!("page torn after {cut} bytes decoded as {other:?}"),
                }
            }
            torn_page[cut] = bytes[cut];
        }
        assert!(deserialize_index(&torn_page).is_ok(), "the intact page decodes");
    }

    #[test]
    fn mutated_index_headers_never_panic() {
        // Byte-level mutation sweep over the header region: decoding
        // must either reject the page or round-trip to *some* metadata,
        // but it must never panic or over-allocate on hostile counts.
        let (_, meta) = build(100, 20);
        let bytes = serialize_index(&meta);
        let header = bytes.len().min(64);
        for off in 0..header {
            for flip in [0x01u8, 0xFF] {
                let mut corrupted = bytes.clone();
                corrupted[off] ^= flip;
                let _ = deserialize_index(&corrupted);
            }
        }
    }

    #[test]
    fn index_block_is_stored_on_flash() {
        let (mut flash, meta) = build(1000, 20);
        assert!(!meta.index_pages.is_empty());
        let (_, page) = flash.read_page(meta.index_pages[0], 0).unwrap();
        assert_eq!(&page[..4], b"NKVS");
    }

    #[test]
    fn empty_sst_matches_nothing() {
        // An empty run writes no SST at all ...
        let mut flash = FlashArray::new(FlashConfig::default());
        let mut alloc = PageAllocator::new(flash.config());
        let run = RunWriter::new(&mut flash, &mut alloc, 5, shape(1, 20, usize::MAX));
        assert_eq!(run.finish().unwrap(), (Vec::new(), 5));
        assert_eq!(flash.op_counts(), (0, 0));
        // ... and an empty SST decoded from an index block matches no key.
        let (_, mut meta) = build(1, 20);
        meta.n_records = 0;
        meta.blocks.clear();
        assert!(!meta.may_contain(0));
        assert!(!meta.may_contain(2), "not even the key its bloom and range still hold");
    }
}
