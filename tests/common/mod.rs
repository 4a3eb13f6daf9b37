//! Fixtures shared by the differential suites (`batched_get_equivalence`,
//! `adaptive_equivalence`, `cache_equivalence`, `chaos`, `cluster_chaos`,
//! `plan_equivalence`, `recovery`): one papers table, one record
//! generator, one store-plus-model builder, and the aggregate-capable
//! refs table with its version histories.
#![allow(dead_code)] // each suite uses its own subset

use ndp_ir::{elaborate, AggOp};
use ndp_workload::spec::{PAPER_PE, PAPER_REF_SPEC};
use ndp_workload::{Paper, PaperGen, PubGraphConfig, Ref};
use nkv::{NkvDb, SimReport, TableConfig};
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

/// The A3 ablation's refs table: a parser with count/sum/min/max units
/// (the paper tables' PEs carry none), 4 PEs.
pub fn ref_agg_cfg(unique_keys: bool) -> TableConfig {
    let m = ndp_spec::parse(
        "/* @autogen define parser RefAgg with chunksize = 32,
            input = Ref, output = Ref, aggregate = { count, sum, min, max } */
         typedef struct { uint64_t src; uint64_t dst; uint32_t year; } Ref;",
    )
    .unwrap();
    let mut cfg = TableConfig::new(elaborate(&m, "RefAgg").unwrap());
    cfg.n_pes = 4;
    cfg.unique_keys = unique_keys;
    cfg
}

pub fn ref_year(rec: &[u8]) -> u64 {
    u64::from(u32::from_le_bytes(rec[16..20].try_into().unwrap()))
}

/// One write of a [`Churn`] history.
pub enum Write {
    Put(Vec<u8>),
    Delete(u64),
    Flush,
}

/// The version histories the differential suites reconcile, each on a
/// unique-key refs table ([`ref_agg_cfg`]`(true)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Churn {
    /// The sequence that made an aggregate count every stored version:
    /// 100 PUTs, flush, 50 overwrites + 10 DELETEs, flush. The first
    /// versions of keys 1 and 2 hold the table's MIN and MAX year and are
    /// overwritten — an extreme that cannot be subtracted out afterwards.
    Flushed,
    /// The same with the overwrites and DELETEs left in the memtable.
    TailInMemtable,
    /// 4 000 keys whose versions pass `year >= 2000`, flush; every odd
    /// key overwritten by a version that fails it and key 4 000 deleted,
    /// flush. The failing newer version must still hide the passing
    /// older one, and the shadows span both blocks of the newer SST.
    NewerFails,
    /// The 3 000 odd keys 1..6 000, flush; the 3 000 even keys between
    /// them, flush. No key has two versions, but every odd key falls
    /// inside a block of the newer SST, so a bloom false positive sends
    /// its search to a block that lacks it: the older version stays.
    BloomMiss,
}

impl Churn {
    pub const ALL: [Churn; 4] =
        [Churn::Flushed, Churn::TailInMemtable, Churn::NewerFails, Churn::BloomMiss];

    /// Data blocks of every SST but the oldest (1 638 records fill a 32
    /// KiB block): the most blocks one reconciling op can search.
    pub fn newer_blocks(self) -> u64 {
        match self {
            Churn::TailInMemtable => 0,
            Churn::Flushed => 1,
            Churn::NewerFails | Churn::BloomMiss => 2,
        }
    }

    /// The writes of this history and the model they leave.
    pub fn writes(self) -> (Vec<Write>, BTreeMap<u64, Vec<u8>>) {
        let rec = |src: u64, year: u64| {
            let mut v = Vec::with_capacity(20);
            Ref { src, dst: src * 7, year: year as u32 }.encode_into(&mut v);
            Write::Put(v)
        };
        let mut writes: Vec<Write> = match self {
            Churn::Flushed | Churn::TailInMemtable => (1..=100u64)
                .map(|k| match k {
                    1 => rec(k, 1500),
                    2 => rec(k, 2500),
                    _ => rec(k, 1960 + k * 37 % 60),
                })
                .chain([Write::Flush])
                .chain((1..=50u64).map(|k| rec(k, 1970 + k * 11 % 45)))
                .chain((91..=100).map(Write::Delete))
                .collect(),
            Churn::NewerFails => (1..=4_000u64)
                .map(|k| rec(k, 2000 + k % 20))
                .chain([Write::Flush])
                .chain((1..=4_000u64).step_by(2).map(|k| rec(k, 1980 + k % 20)))
                .chain([Write::Delete(4_000)])
                .collect(),
            Churn::BloomMiss => (1..6_000u64)
                .step_by(2)
                .map(|k| rec(k, 2000 + k % 20))
                .chain([Write::Flush])
                .chain((2..=6_000u64).step_by(2).map(|k| rec(k, 1990 + k % 20)))
                .collect(),
        };
        if self != Churn::TailInMemtable {
            writes.push(Write::Flush);
        }
        let mut model = BTreeMap::new();
        for w in &writes {
            match w {
                Write::Put(r) => {
                    model.insert(u64::from_le_bytes(r[..8].try_into().unwrap()), r.clone());
                }
                Write::Delete(k) => {
                    model.remove(k);
                }
                Write::Flush => {}
            }
        }
        (writes, model)
    }
}

pub fn apply(db: &mut NkvDb, table: &str, writes: &[Write]) {
    for w in writes {
        match w {
            Write::Put(r) => db.put(table, r.clone()).unwrap(),
            Write::Delete(k) => db.delete(table, *k).unwrap(),
            Write::Flush => db.flush(table).unwrap(),
        }
    }
}

/// A report as one pinnable literal: `[sim_ns, blocks, bytes_scanned,
/// result_bytes, tuples_in, tuples_out, reg_writes, reg_reads,
/// shadow_confirm_reads]`.
pub fn report_fields(r: &SimReport) -> [u64; 9] {
    [
        r.sim_ns,
        r.blocks,
        r.bytes_scanned,
        r.result_bytes,
        r.tuples_in,
        r.tuples_out,
        r.reg_writes,
        r.reg_reads,
        r.shadow_confirm_reads,
    ]
}

/// The model's answer to `agg(year)` over the `rows` with `year >=
/// min_year`: `(value, any)`, wrapping like the accumulator.
pub fn fold_years<'a>(
    rows: impl IntoIterator<Item = &'a Vec<u8>>,
    min_year: u64,
    agg: AggOp,
) -> (u64, bool) {
    let years: Vec<u64> =
        rows.into_iter().map(|r| ref_year(r)).filter(|&y| y >= min_year).collect();
    let value = match agg {
        AggOp::Count => years.len() as u64,
        AggOp::Sum => years.iter().fold(0u64, |a, y| a.wrapping_add(*y)),
        AggOp::Min => years.iter().copied().min().unwrap_or(0),
        AggOp::Max => years.iter().copied().max().unwrap_or(0),
    };
    (value, !years.is_empty())
}
