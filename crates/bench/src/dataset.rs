//! Dataset construction: load the publication graph into an nKV device.

use cosmos_sim::{CosmosConfig, FirmwareEra};
use ndp_ir::elaborate;
use ndp_pe::template::PeVariant;
use ndp_workload::spec::{PAPER_PE, PAPER_REF_SPEC, REF_PE};
use ndp_workload::{PaperGen, PubGraphConfig, RefGen};
use nkv::{NkvDb, TableConfig};

/// Which system composition to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DbKind {
    /// This work: generated PEs, updated firmware.
    Ours,
    /// Vinçon et al. \[1\]: hand-crafted PEs, original firmware.
    Baseline,
}

/// A loaded device: the database plus the workload configuration.
pub struct Dataset {
    pub(crate) db: NkvDb,
    pub cfg: PubGraphConfig,
    /// Scale factor relative to the paper's full dataset.
    pub scale: f64,
}

/// The papers table's configuration (1 paper-PE, the paper's C1 churn
/// shape) — shared between the single-device builder and the cluster
/// experiments so every experiment runs the identical table.
pub(crate) fn paper_table_config(variant: PeVariant) -> TableConfig {
    let module = ndp_spec::parse(PAPER_REF_SPEC).expect("bundled spec parses");
    let paper_pe = elaborate(&module, PAPER_PE).expect("bundled spec elaborates");
    let mut cfg = TableConfig::new(paper_pe);
    cfg.n_pes = 1;
    cfg.variant = variant;
    // Keep C1 shaped like the paper's system under churn: several
    // overlapping SSTs before compaction kicks in.
    cfg.lsm.c1_sst_limit = 12;
    cfg
}

/// The refs table's configuration (7 ref-PEs, duplicate source keys).
pub(crate) fn ref_table_config(variant: PeVariant) -> TableConfig {
    let module = ndp_spec::parse(PAPER_REF_SPEC).expect("bundled spec parses");
    let ref_pe = elaborate(&module, REF_PE).expect("bundled spec elaborates");
    let mut cfg = TableConfig::new(ref_pe);
    cfg.n_pes = 7;
    cfg.variant = variant;
    cfg.unique_keys = false; // edge table keyed by source id
    cfg
}

/// Every paper record at `cfg`'s scale, encoded and in bulk-load order.
/// For experiments that load the same dataset repeatedly (the cluster
/// matrix builds one fleet per cell); the single-device builder streams
/// instead.
pub(crate) fn paper_records(cfg: PubGraphConfig) -> Vec<Vec<u8>> {
    PaperGen::new(cfg)
        .map(|p| {
            let mut buf = Vec::with_capacity(80);
            p.encode_into(&mut buf);
            buf
        })
        .collect()
}

/// Build a device with the paper's PE population (1 paper-PE, 7 ref-PEs)
/// and bulk-load the publication graph at `scale` (1.0 = the paper's
/// 3.78 M papers / 40.1 M refs ≈ 1.10 GB).
///
/// Generation runs in a producer thread feeding the bulk loader through a
/// bounded channel, so multi-gigabyte datasets stream without
/// materialization.
pub(crate) fn build_db(scale: f64, kind: DbKind) -> Dataset {
    let (variant, firmware) = match kind {
        DbKind::Ours => (PeVariant::Generated, FirmwareEra::Updated),
        DbKind::Baseline => (PeVariant::HandCrafted, FirmwareEra::Original),
    };
    let mut db = NkvDb::new(CosmosConfig { firmware, ..CosmosConfig::default() });
    db.create_table("papers", paper_table_config(variant)).expect("table config is valid");
    db.create_table("refs", ref_table_config(variant)).expect("table config is valid");

    let cfg = PubGraphConfig::scaled(scale);
    load_streaming(&mut db, "papers", cfg, true);
    load_streaming(&mut db, "refs", cfg, false);
    Dataset { db, cfg, scale }
}

/// Stream-generate and bulk-load one table through a bounded channel.
fn load_streaming(db: &mut NkvDb, table: &str, cfg: PubGraphConfig, papers: bool) {
    let (tx, rx) = std::sync::mpsc::sync_channel::<Vec<u8>>(4096);
    std::thread::scope(|scope| {
        scope.spawn(move || {
            if papers {
                let mut buf = Vec::with_capacity(80);
                for p in PaperGen::new(cfg) {
                    buf.clear();
                    p.encode_into(&mut buf);
                    if tx.send(buf.clone()).is_err() {
                        return;
                    }
                }
            } else {
                let mut buf = Vec::with_capacity(20);
                for r in RefGen::new(cfg) {
                    buf.clear();
                    r.encode_into(&mut buf);
                    if tx.send(buf.clone()).is_err() {
                        return;
                    }
                }
            }
        });
        let n = db.bulk_load(table, rx).expect("bulk load succeeds");
        let expected = if papers { cfg.papers } else { cfg.refs };
        assert_eq!(n, expected, "loader must ingest the whole stream");
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndp_pe::oracle::FilterRule;
    use ndp_workload::spec::paper_lanes;
    use nkv::Backend;

    #[test]
    fn tiny_dataset_builds_and_scans() {
        let mut ds = build_db(1.0 / 4096.0, DbKind::Ours);
        assert!(ds.cfg.papers > 500);
        let rules = [FilterRule { lane: paper_lanes::YEAR, op_code: 4, value: 2000 }];
        let s = ds.db.scan("papers", &rules, Backend::Hardware).unwrap();
        let expected = PaperGen::new(ds.cfg).filter(|p| p.year >= 2000).count() as u64;
        assert_eq!(s.count, expected);
    }

    #[test]
    fn baseline_and_ours_hold_identical_data() {
        let mut a = build_db(1.0 / 8192.0, DbKind::Ours);
        let mut b = build_db(1.0 / 8192.0, DbKind::Baseline);
        let rules = [FilterRule { lane: paper_lanes::YEAR, op_code: 4, value: 1990 }];
        let ra = a.db.scan("papers", &rules, Backend::Software).unwrap();
        let rb = b.db.scan("papers", &rules, Backend::Software).unwrap();
        assert_eq!(ra.records, rb.records);
    }

    #[test]
    fn refs_table_accepts_duplicate_source_keys() {
        let mut ds = build_db(1.0 / 4096.0, DbKind::Ours);
        // Average out-degree > 1 at any scale, so duplicate keys exist.
        assert!(ds.cfg.refs > ds.cfg.papers);
        let s = ds
            .db
            .scan(
                "refs",
                &[FilterRule { lane: 2, op_code: 4 /* ge */, value: 2000 }],
                Backend::Hardware,
            )
            .unwrap();
        assert!(s.count > 0);
    }
}
