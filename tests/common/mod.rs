//! Fixtures shared by the differential suites (`batched_get_equivalence`,
//! `adaptive_equivalence`, `cache_equivalence`, `chaos`, `cluster_chaos`,
//! `recovery`): one papers table, one record generator, one
//! store-plus-model builder.
#![allow(dead_code)] // each suite uses its own subset

use ndp_ir::elaborate;
use ndp_workload::spec::{PAPER_PE, PAPER_REF_SPEC};
use ndp_workload::{Paper, PaperGen, PubGraphConfig};
use nkv::{NkvDb, TableConfig};
use std::collections::BTreeMap;

pub fn encode(p: &Paper) -> Vec<u8> {
    let mut v = Vec::with_capacity(80);
    p.encode_into(&mut v);
    v
}

/// The papers table with `n_pes` PEs, a tiny memtable and a C1
/// compaction trigger of `c1_sst_limit`, so a few hundred records yield
/// a multi-SST, flash-resident shape (and, at 2, flush + compaction).
pub fn table_cfg(n_pes: usize, c1_sst_limit: usize) -> TableConfig {
    let m = ndp_spec::parse(PAPER_REF_SPEC).unwrap();
    let mut cfg = TableConfig::new(elaborate(&m, PAPER_PE).unwrap());
    cfg.n_pes = n_pes;
    cfg.lsm.memtable_bytes = 8 * 1024;
    cfg.lsm.c1_sst_limit = c1_sst_limit;
    cfg
}

pub fn record_for(key: u64) -> Vec<u8> {
    let gen_cfg = PubGraphConfig { papers: 200, refs: 0, seed: 1 };
    let mut p = PaperGen::paper_at(&gen_cfg, key % 200);
    p.id = key;
    encode(&p)
}

/// A one-PE store with `n` records spread across the memtable and
/// several overlapping SSTs, plus its model.
pub fn build_db(n: u64) -> (NkvDb, BTreeMap<u64, Vec<u8>>) {
    let mut db = NkvDb::default_db();
    db.create_table("papers", table_cfg(1, 4)).unwrap();
    let mut model = BTreeMap::new();
    for key in 1..=n {
        let r = record_for(key);
        db.put("papers", r.clone()).unwrap();
        model.insert(key, r);
        if key % 64 == 0 {
            db.flush("papers").unwrap();
        }
    }
    (db, model)
}
