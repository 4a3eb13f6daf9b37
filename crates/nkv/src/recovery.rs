//! Device recovery: rebuild the store's state from flash after a
//! power cycle.
//!
//! nKV's native computational storage keeps all accessor state on the
//! device; everything needed to serve GET/SCAN again lives in flash:
//!
//! * a **manifest** (superblock) at a fixed physical location lists every
//!   table and the physical pages of each SST's index block;
//! * each **index block** fully describes one SST (block key ranges,
//!   data-page addresses, bloom filter bits, tombstones — see
//!   [`crate::sst::serialize_index`]).
//!
//! [`NkvDb::persist`](crate::NkvDb::persist) writes the manifest;
//! [`NkvDb::recover`](crate::NkvDb::recover) reads it back, parses
//! every index block and reconstructs the LSM trees and the page
//! allocator watermarks. The volatile memtable (`C0`) is lost, exactly
//! like a real LSM without a write-ahead log — the device relies on the
//! host treating unflushed writes as unacknowledged (documented design
//! decision; RocksDB's WAL is out of scope for the paper's read-path
//! evaluation).
//!
//! # Power-cut atomicity
//!
//! Manifests carry a monotonically increasing **epoch** and alternate
//! between **two fixed slots** (`epoch % 2`). A persist only ever
//! overwrites the slot *not* holding the current manifest, so a power
//! cut mid-write tears at most the new slot: its CRC fails and
//! `read_manifest` falls back to the intact older slot. Because the
//! page allocator is a bump allocator that never reuses pages, and no
//! SST either slot can list is trimmed, every SST the older manifest
//! references is still readable — recovery always lands on a consistent
//! (if slightly stale) state. The trim rule: a compaction's retired
//! inputs are trimmed at once when they were born after the newest
//! persist began (no slot lists them), and otherwise once the persist of
//! epoch `e + 2` succeeds, `e` being the epoch current at retirement
//! (both slots then hold manifests written after they retired).
//! Recovery protects every SST either slot lists: the allocator steps
//! past all their pages, and an SST only the older slot lists waits to
//! be trimmed as retired under that slot's epoch, so a later fallback to
//! the older slot finds what it lists, even after post-recovery writes.

use crate::error::{NkvError, NkvResult};
use crate::sst::{deserialize_index, program_pages, SstMeta};
use crate::util::crc32c;
use cosmos_sim::{FlashArray, PhysAddr, SimNs};

/// Pages reserved per manifest slot. Two slots sit at the top of
/// channel 0 / LUN 0 (slot 0 highest). The allocator fills pages
/// bottom-up, so collision would require an essentially full device
/// (and is caught by the CRC).
pub(crate) const MANIFEST_SLOT_PAGES: u32 = 8;

/// The one manifest layout: magic, version, epoch, tables, CRC. The
/// decoder reads exactly the version the encoder writes, so a slot of
/// any other version is corrupt rather than misread.
const MANIFEST_VERSION: u32 = 2;

/// Manifest entry for one table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableManifest {
    pub name: String,
    pub record_bytes: u32,
    /// `(lsm_level, index_pages)` per SST, in recency order per level.
    pub ssts: Vec<(u32, Vec<PhysAddr>)>,
    /// True if the table allows duplicate keys (edge tables).
    pub unique_keys: bool,
}

/// The whole device manifest.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    /// Monotonically increasing persist generation; selects the slot
    /// (`epoch % 2`) and breaks ties between two valid slots (higher
    /// epoch = newer manifest wins).
    pub epoch: u64,
    pub tables: Vec<TableManifest>,
}

fn manifest_page(slot: u32, i: u32, pages_per_lun: u32) -> PhysAddr {
    PhysAddr { channel: 0, lun: 0, page: pages_per_lun - 1 - (slot * MANIFEST_SLOT_PAGES + i) }
}

/// Serialize the manifest (little-endian, CRC-terminated).
pub(crate) fn encode_manifest(m: &Manifest) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(b"NKVM");
    out.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
    out.extend_from_slice(&m.epoch.to_le_bytes());
    out.extend_from_slice(&(m.tables.len() as u32).to_le_bytes());
    for t in &m.tables {
        out.extend_from_slice(&(t.name.len() as u16).to_le_bytes());
        out.extend_from_slice(t.name.as_bytes());
        out.extend_from_slice(&t.record_bytes.to_le_bytes());
        out.push(u8::from(t.unique_keys));
        out.extend_from_slice(&(t.ssts.len() as u32).to_le_bytes());
        for (level, pages) in &t.ssts {
            out.extend_from_slice(&level.to_le_bytes());
            out.extend_from_slice(&(pages.len() as u16).to_le_bytes());
            for p in pages {
                out.extend_from_slice(&p.channel.to_le_bytes());
                out.extend_from_slice(&p.lun.to_le_bytes());
                out.extend_from_slice(&p.page.to_le_bytes());
            }
        }
    }
    let crc = crc32c(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Parse a serialized manifest.
pub(crate) fn decode_manifest(bytes: &[u8]) -> NkvResult<Manifest> {
    let fail = || NkvError::Config("corrupt manifest".into());
    let take = |pos: &mut usize, n: usize| -> NkvResult<&[u8]> {
        let end = pos.checked_add(n).filter(|&e| e <= bytes.len()).ok_or_else(fail)?;
        let s = &bytes[*pos..end];
        *pos = end;
        Ok(s)
    };
    let u16_at = |pos: &mut usize| -> NkvResult<u16> {
        let v = crate::util::le_u16(bytes, *pos, "manifest field")?;
        *pos += 2;
        Ok(v)
    };
    let u32_at = |pos: &mut usize| -> NkvResult<u32> {
        let v = crate::util::le_u32(bytes, *pos, "manifest field")?;
        *pos += 4;
        Ok(v)
    };
    let mut pos = 0usize;
    if take(&mut pos, 4)? != b"NKVM" {
        return Err(fail());
    }
    if u32_at(&mut pos)? != MANIFEST_VERSION {
        return Err(fail());
    }
    let epoch = crate::util::le_u64(bytes, pos, "manifest epoch")?;
    pos += 8;
    let n_tables = u32_at(&mut pos)? as usize;
    if n_tables > bytes.len() {
        return Err(fail());
    }
    let mut tables = Vec::with_capacity(n_tables);
    for _ in 0..n_tables {
        let name_len = u16_at(&mut pos)? as usize;
        let name = String::from_utf8(take(&mut pos, name_len)?.to_vec()).map_err(|_| fail())?;
        let record_bytes = u32_at(&mut pos)?;
        let unique_keys = take(&mut pos, 1)?[0] != 0;
        let n_ssts = u32_at(&mut pos)? as usize;
        if n_ssts > bytes.len() {
            return Err(fail());
        }
        let mut ssts = Vec::with_capacity(n_ssts);
        for _ in 0..n_ssts {
            let level = u32_at(&mut pos)?;
            let n_pages = u16_at(&mut pos)? as usize;
            let mut pages = Vec::with_capacity(n_pages);
            for _ in 0..n_pages {
                let channel = u16_at(&mut pos)?;
                let lun = u16_at(&mut pos)?;
                let page = u32_at(&mut pos)?;
                pages.push(PhysAddr { channel, lun, page });
            }
            ssts.push((level, pages));
        }
        tables.push(TableManifest { name, record_bytes, ssts, unique_keys });
    }
    let crc_stored = u32_at(&mut pos)?;
    if crc32c(&bytes[..pos - 4]) != crc_stored {
        return Err(fail());
    }
    Ok(Manifest { epoch, tables })
}

/// Write the manifest into the slot selected by its epoch (`epoch % 2`);
/// returns completion time. The other slot — holding the previous valid
/// manifest — is untouched, so a power cut mid-write cannot lose both.
/// Fails if the manifest outgrows one slot.
pub fn write_manifest(flash: &mut FlashArray, m: &Manifest, now: SimNs) -> NkvResult<SimNs> {
    let bytes = encode_manifest(m);
    let page_bytes = flash.config().page_bytes as usize;
    let needed = bytes.len().div_ceil(page_bytes) as u32;
    if needed > MANIFEST_SLOT_PAGES {
        return Err(NkvError::Config(format!(
            "manifest needs {needed} pages, only {MANIFEST_SLOT_PAGES} per slot"
        )));
    }
    let slot = (m.epoch % 2) as u32;
    let pages_per_lun = flash.config().pages_per_lun;
    let pages: Vec<PhysAddr> = (0..needed).map(|i| manifest_page(slot, i, pages_per_lun)).collect();
    program_pages(flash, &pages, bytes, None, now)
}

/// Read one slot's manifest, or `None` if the slot holds nothing valid.
fn read_slot(flash: &mut FlashArray, slot: u32, now: SimNs) -> (Option<Manifest>, SimNs) {
    let pages_per_lun = flash.config().pages_per_lun;
    let mut bytes = Vec::new();
    let mut done = now;
    for i in 0..MANIFEST_SLOT_PAGES {
        let addr = manifest_page(slot, i, pages_per_lun);
        match flash.read_page(addr, now) {
            Ok((t, page)) => {
                done = done.max(t);
                bytes.extend_from_slice(page);
            }
            // Unwritten / unreadable tail pages end the slot; a torn or
            // corrupt slot fails the CRC below either way.
            Err(_) => break,
        }
    }
    // The decoder walks the structure to its own CRC trailer, so the
    // padding of the last page is ignored.
    (decode_manifest(&bytes).ok(), done)
}

/// Read the manifests back: both slots are scanned, and the newest valid
/// one (highest epoch with an intact CRC) wins; the other slot's comes
/// beside it when it is valid too. Errors only if neither slot holds a
/// valid manifest.
pub(crate) fn read_manifest(
    flash: &mut FlashArray,
    now: SimNs,
) -> NkvResult<(Manifest, Option<Manifest>, SimNs)> {
    let (m0, t0) = read_slot(flash, 0, now);
    let (m1, t1) = read_slot(flash, 1, now);
    let (newest, older) = match (m0, m1) {
        (Some(a), Some(b)) if a.epoch < b.epoch => (b, Some(a)),
        (Some(a), b) | (b @ None, Some(a)) => (a, b),
        (None, None) => return Err(NkvError::Config("no valid manifest in either slot".into())),
    };
    Ok((newest, older, t0.max(t1)))
}

/// Rebuild one SST's metadata from its on-flash index block.
pub(crate) fn read_index(
    flash: &mut FlashArray,
    pages: &[PhysAddr],
    now: SimNs,
) -> NkvResult<(SstMeta, SimNs)> {
    let mut bytes = Vec::with_capacity(pages.len() * flash.config().page_bytes as usize);
    let mut done = now;
    for &p in pages {
        let (t, page) = flash.read_page(p, now)?;
        done = done.max(t);
        bytes.extend_from_slice(page);
    }
    // Index blocks are CRC-delimited like the manifest; whatever the
    // decoder trips over, recovery reports the index as the culprit.
    let mut meta = deserialize_index(&bytes)
        .map_err(|e| NkvError::Config(format!("corrupt index block: {e}")))?;
    meta.index_pages = pages.to_vec();
    Ok((meta, done))
}

/// Build the manifest entry for one table from its live metadata.
pub(crate) fn manifest_entry(
    name: &str,
    record_bytes: usize,
    unique_keys: bool,
    levels: &[Vec<SstMeta>],
) -> TableManifest {
    let mut ssts = Vec::new();
    for (level, list) in levels.iter().enumerate() {
        for sst in list {
            ssts.push((level as u32, sst.index_pages.clone()));
        }
    }
    TableManifest { name: name.to_string(), record_bytes: record_bytes as u32, ssts, unique_keys }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmos_sim::FlashConfig;

    fn sample_manifest() -> Manifest {
        Manifest {
            epoch: 5,
            tables: vec![
                TableManifest {
                    name: "papers".into(),
                    record_bytes: 80,
                    unique_keys: true,
                    ssts: vec![
                        (0, vec![PhysAddr { channel: 1, lun: 0, page: 7 }]),
                        (
                            1,
                            vec![
                                PhysAddr { channel: 2, lun: 3, page: 9 },
                                PhysAddr { channel: 2, lun: 2, page: 9 },
                            ],
                        ),
                    ],
                },
                TableManifest {
                    name: "refs".into(),
                    record_bytes: 20,
                    unique_keys: false,
                    ssts: vec![],
                },
            ],
        }
    }

    #[test]
    fn manifest_encode_decode_round_trips() {
        let m = sample_manifest();
        let bytes = encode_manifest(&m);
        assert_eq!(decode_manifest(&bytes).unwrap(), m);
    }

    #[test]
    fn manifest_decodes_identically_under_trailing_page_padding() {
        let m = sample_manifest();
        let bytes = encode_manifest(&m);
        for pad in [0, 1, 3, 4, FlashConfig::default().page_bytes as usize - 1] {
            let mut padded = bytes.clone();
            padded.resize(bytes.len() + pad, 0);
            assert_eq!(decode_manifest(&padded).unwrap(), m, "{pad} bytes of padding");
        }
    }

    #[test]
    fn encoded_manifest_checksum_is_pinned() {
        // The on-flash format and the CRC kernel must not drift: this
        // constant was computed with the byte-at-a-time CRC loop. (The
        // CRC of body + trailer is the same residue for any body, so
        // the body's checksum is what gets pinned.)
        let bytes = encode_manifest(&sample_manifest());
        let (body, trailer) = bytes.split_at(bytes.len() - 4);
        assert_eq!(crc32c(body), 0xDE02_1A3C);
        assert_eq!(trailer, 0xDE02_1A3Cu32.to_le_bytes());
    }

    #[test]
    fn manifest_rejects_corruption() {
        let mut bytes = encode_manifest(&sample_manifest());
        bytes[10] ^= 0xFF;
        assert!(decode_manifest(&bytes).is_err());
        assert!(decode_manifest(b"NOPE").is_err());
        assert!(decode_manifest(&[]).is_err());
    }

    #[test]
    fn manifest_flash_round_trip_with_padding() {
        let mut flash = FlashArray::new(FlashConfig::default());
        let m = sample_manifest();
        write_manifest(&mut flash, &m, 0).unwrap();
        let (back, _, t) = read_manifest(&mut flash, 1_000_000).unwrap();
        assert_eq!(back, m);
        assert!(t > 1_000_000);
    }

    #[test]
    fn empty_manifest_round_trips() {
        let mut flash = FlashArray::new(FlashConfig::default());
        write_manifest(&mut flash, &Manifest::default(), 0).unwrap();
        let (back, _, _) = read_manifest(&mut flash, 0).unwrap();
        assert_eq!(back, Manifest::default());
    }

    #[test]
    fn missing_manifest_is_an_error() {
        let mut flash = FlashArray::new(FlashConfig::default());
        assert!(read_manifest(&mut flash, 0).is_err());
    }

    #[test]
    fn manifest_pages_sit_at_the_top_of_lun0() {
        let cfg = FlashConfig::default();
        let p = manifest_page(0, 0, cfg.pages_per_lun);
        assert_eq!(p, PhysAddr { channel: 0, lun: 0, page: cfg.pages_per_lun - 1 });
        let q = manifest_page(1, 0, cfg.pages_per_lun);
        assert_eq!(
            q,
            PhysAddr { channel: 0, lun: 0, page: cfg.pages_per_lun - 1 - MANIFEST_SLOT_PAGES }
        );
    }

    #[test]
    fn successive_epochs_alternate_slots_and_newest_wins() {
        let mut flash = FlashArray::new(FlashConfig::default());
        let mut m = sample_manifest();
        for epoch in 1..=4u64 {
            m.epoch = epoch;
            write_manifest(&mut flash, &m, 0).unwrap();
            let (back, older, _) = read_manifest(&mut flash, 0).unwrap();
            assert_eq!(back.epoch, epoch, "newest epoch must win");
            assert_eq!(older.map(|m| m.epoch), epoch.checked_sub(1).filter(|&e| e > 0));
        }
        // Both slots are populated (epochs 3 and 4 live side by side).
        let cfg = FlashConfig::default();
        for slot in 0..2 {
            assert!(flash.read_page(manifest_page(slot, 0, cfg.pages_per_lun), 0).is_ok());
        }
    }

    #[test]
    fn torn_newer_slot_falls_back_to_older_epoch() {
        let mut flash = FlashArray::new(FlashConfig::default());
        let mut m = sample_manifest();
        m.epoch = 1;
        write_manifest(&mut flash, &m, 0).unwrap();
        m.epoch = 2;
        write_manifest(&mut flash, &m, 0).unwrap();
        // Tear epoch 2's slot (slot 0): flip a byte in its first page.
        let cfg = FlashConfig::default();
        let addr = manifest_page(0, 0, cfg.pages_per_lun);
        let mut torn = flash.read_page(addr, 0).unwrap().1.to_vec();
        torn[6] ^= 0xFF;
        flash.program_page(addr, &torn, 0).unwrap();
        let (back, older, _) = read_manifest(&mut flash, 0).unwrap();
        assert_eq!(back.epoch, 1, "CRC failure must fall back to the intact slot");
        assert_eq!(older, None, "a slot that does not decode is no older manifest");
    }

    #[test]
    fn only_the_written_manifest_version_decodes() {
        // A CRC-valid header with an empty table list; `epoch` is the
        // version-2 field, which version 1 (pre-epoch) did not have.
        let header = |version: u32, epoch: Option<u64>| {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(b"NKVM");
            bytes.extend_from_slice(&version.to_le_bytes());
            if let Some(e) = epoch {
                bytes.extend_from_slice(&e.to_le_bytes());
            }
            bytes.extend_from_slice(&0u32.to_le_bytes());
            let crc = crc32c(&bytes);
            bytes.extend_from_slice(&crc.to_le_bytes());
            bytes
        };
        let v2 = decode_manifest(&header(MANIFEST_VERSION, Some(7))).unwrap();
        assert_eq!((v2.epoch, v2.tables.len()), (7, 0));
        for (version, epoch) in [(1, None), (3, Some(7))] {
            assert!(
                decode_manifest(&header(version, epoch)).is_err(),
                "a version-{version} manifest must not decode"
            );
        }
    }
}
