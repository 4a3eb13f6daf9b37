//! The deterministic-simulation harness the differential suites are
//! slices of (`plan_equivalence`, `cache_equivalence`,
//! `batched_get_equivalence`, `adaptive_equivalence`, `chaos`,
//! `cluster_chaos`), plus the fixtures `recovery` and `aggregation`
//! share.
//!
//! * [`Op`] is one operation: a write, a persist, a power cycle, a
//!   repair or a read. [`ops`] draws a seeded sequence of them from a
//!   [`Mix`]; [`Churn`] holds four fixed version histories.
//! * [`Model`] is the one reference: a `BTreeMap` that acknowledged
//!   writes are applied to, answering every read through a lane and
//!   predicate evaluator of its own (not the PE's compiled program).
//! * [`Weather`] names the fault plans, each with the typed errors a
//!   read may return under it.
//! * [`Cfg`] is one configuration — table, tier, streams, cache, fleet
//!   size, read policy, weather — and [`Cfg::build`] makes its [`Store`]
//!   (a device or a fleet) and the model of what it holds.
//! * [`run`] applies ops to a store and its model, checks every read
//!   against the model (or the weather's errors), and returns the raw
//!   answers in the store's order, so a slice can also pin the
//!   deterministic merge across configurations. A failure panics with
//!   the configuration and the op prefix as a pasteable `vec![..]`.
#![allow(dead_code)] // each suite uses its own subset

use cosmos_sim::faults::{FaultPlan, FlashFaultKind, ScheduledFault};
use cosmos_sim::{CosmosPlatform, DeviceFaultKind, DeviceFaultPlan, FlashError, PhysAddr};
use ndp_ir::{elaborate, AggOp};
use ndp_pe::oracle::FilterRule;
use ndp_workload::spec::{paper_lanes, PAPER_PE, PAPER_REF_SPEC};
use ndp_workload::{Paper, PaperGen, PubGraphConfig, Ref, RefGen, SplitMix64};
use nkv::{
    Backend, ClusterConfig, LogicalOp, NkvCluster, NkvDb, NkvError, NkvResult, PlanOutcome,
    ReadPolicy, SimReport, TableConfig,
};
use std::collections::BTreeMap;
use std::fmt;

/// Key → record.
type Map = BTreeMap<u64, Vec<u8>>;

/// The device-DRAM cache budget a cached store runs at (the default the
/// acceptance gate measures).
pub const CACHE_BUDGET: usize = 8 << 20;

// ------------------------------------------------------------- records

pub fn key_of(rec: &[u8]) -> u64 {
    u64::from_le_bytes(rec[..8].try_into().unwrap())
}

pub fn encode(p: &Paper) -> Vec<u8> {
    let mut v = Vec::with_capacity(80);
    p.encode_into(&mut v);
    v
}

/// Paper `key`: the generator's paper at `key % 200`, renumbered, with
/// `year` in place of its own if given.
pub fn paper(key: u64, year: Option<u32>) -> Vec<u8> {
    let mut p = PaperGen::paper_at(&PubGraphConfig { papers: 200, refs: 0, seed: 1 }, key % 200);
    p.id = key;
    p.year = year.unwrap_or(p.year);
    encode(&p)
}

pub fn record_for(key: u64) -> Vec<u8> {
    paper(key, None)
}

/// PUTs of keys `1..=n`, flushed after every 64th: a memtable over
/// several overlapping SSTs.
pub fn puts(n: u64) -> Vec<Op> {
    let put_flush = |k| [Some(Op::Put(record_for(k))), (k % 64 == 0).then_some(Op::Flush)];
    (1..=n).flat_map(put_flush).flatten().collect()
}

/// The first `n` papers of the 1/4096-scale graph, in key order.
pub fn papers(n: u64) -> Vec<Vec<u8>> {
    let wl = PubGraphConfig { papers: n, ..PubGraphConfig::scaled(1.0 / 4096.0) };
    (0..n).map(|i| encode(&PaperGen::paper_at(&wl, i))).collect()
}

/// The first `n` refs of the 1/4096-scale graph, in load order. Their
/// keys repeat: a multi-record table's contents.
pub fn refs(n: u64) -> Vec<Vec<u8>> {
    let wl = PubGraphConfig { refs: n, ..PubGraphConfig::scaled(1.0 / 4096.0) };
    let encode = |r: Ref| {
        let mut rec = Vec::with_capacity(20);
        r.encode_into(&mut rec);
        rec
    };
    RefGen::new(wl).take(n as usize).map(encode).collect()
}

/// `year >= value` / `year < value`-style rules on `lane`.
pub fn ge(lane: u32, value: u64) -> FilterRule {
    FilterRule { lane, op_code: 4, value }
}

pub fn lt(lane: u32, value: u64) -> FilterRule {
    FilterRule { lane, op_code: 5, value }
}

// --------------------------------------------------------------- tables

/// The two table shapes the slices run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Table {
    /// `papers` (80-byte records) with `pes` PEs. With `c1`, an 8 KiB
    /// memtable and that C1 compaction trigger, so a few hundred records
    /// yield a multi-SST, flash-resident shape (at 2, flush + compaction);
    /// without, the default LSM.
    Papers { pes: usize, c1: Option<usize> },
    /// `refs` (20 bytes): the A3 ablation's parser with count/sum/min/max
    /// units (the paper tables' PEs carry none), 4 PEs. With `unique`
    /// keys a newer version shadows an older one; without, every version
    /// is a record of its own.
    Refs { unique: bool },
}

impl Table {
    pub fn name(self) -> &'static str {
        match self {
            Table::Papers { .. } => "papers",
            Table::Refs { .. } => "refs",
        }
    }

    pub fn width(self) -> usize {
        match self {
            Table::Papers { .. } => 80,
            Table::Refs { .. } => 20,
        }
    }

    pub fn config(self) -> TableConfig {
        match self {
            Table::Papers { pes, c1 } => {
                let m = ndp_spec::parse(PAPER_REF_SPEC).unwrap();
                let mut cfg = TableConfig::new(elaborate(&m, PAPER_PE).unwrap());
                cfg.n_pes = pes;
                if let Some(limit) = c1 {
                    cfg.lsm.memtable_bytes = 8 * 1024;
                    cfg.lsm.c1_sst_limit = limit;
                }
                cfg
            }
            Table::Refs { unique } => {
                let m = ndp_spec::parse(
                    "/* @autogen define parser RefAgg with chunksize = 32,
                        input = Ref, output = Ref, aggregate = { count, sum, min, max } */
                     typedef struct { uint64_t src; uint64_t dst; uint32_t year; } Ref;",
                )
                .unwrap();
                let mut cfg = TableConfig::new(elaborate(&m, "RefAgg").unwrap());
                cfg.n_pes = 4;
                cfg.unique_keys = unique;
                cfg
            }
        }
    }
}

// ------------------------------------------------------------------ ops

/// One operation of a history.
#[derive(Clone, PartialEq)]
pub enum Op {
    Put(Vec<u8>),
    Delete(u64),
    Flush,
    /// Persist the manifest. The model counts every write before it as
    /// durable, so a history flushes first (memtables are volatile).
    Persist,
    /// Reboot a device from its flash image and recover it.
    PowerCycle,
    /// Relocate pages with 3 or more correctable reads and bring
    /// watchdog-retired PEs back.
    Repair,
    Get(u64),
    MultiGet(Vec<u64>),
    Scan(Vec<FilterRule>),
    /// `lo <= key < hi`.
    RangeScan(u64, u64),
    /// `agg` over `lane` of the records passing the rules.
    Aggregate(Vec<FilterRule>, AggOp, u32),
}

impl Op {
    /// The read as the planner's logical op (`None` for the others).
    pub fn query(&self) -> Option<LogicalOp> {
        Some(match self {
            Op::Get(key) => LogicalOp::Get { key: *key },
            Op::MultiGet(keys) => LogicalOp::MultiGet { keys: keys.clone() },
            Op::Scan(rules) => LogicalOp::Scan { rules: rules.clone() },
            Op::RangeScan(lo, hi) => LogicalOp::RangeScan { lo: *lo, hi: *hi },
            Op::Aggregate(rules, agg, lane) => {
                LogicalOp::ScanAggregate { rules: rules.clone(), agg: *agg, lane: *lane }
            }
            _ => return None,
        })
    }
}

/// Prints the Rust that builds the op, so a failing prefix pastes back.
impl fmt::Debug for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Put(rec) => write!(f, "Op::Put(vec!{rec:?})"),
            Op::Delete(key) => write!(f, "Op::Delete({key})"),
            Op::Flush => write!(f, "Op::Flush"),
            Op::Persist => write!(f, "Op::Persist"),
            Op::PowerCycle => write!(f, "Op::PowerCycle"),
            Op::Repair => write!(f, "Op::Repair"),
            Op::Get(key) => write!(f, "Op::Get({key})"),
            Op::MultiGet(keys) => write!(f, "Op::MultiGet(vec!{keys:?})"),
            Op::Scan(rules) => write!(f, "Op::Scan(vec!{rules:?})"),
            Op::RangeScan(lo, hi) => write!(f, "Op::RangeScan({lo}, {hi})"),
            Op::Aggregate(rules, agg, lane) => {
                write!(f, "Op::Aggregate(vec!{rules:?}, AggOp::{agg:?}, {lane})")
            }
        }
    }
}

/// An op mix on `papers`: relative weights of PUT, DELETE, GET, SCAN and
/// repair, over the key space `1..=keys`.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub weights: [u64; 5],
    pub keys: u64,
}

/// `n` ops drawn from `mix` by a `SplitMix64` seeded with `seed`. Step
/// `s` PUTs papers of year `1900 + s % 120` and SCANs for years below it.
pub fn ops(seed: u64, mix: Mix, n: u32) -> Vec<Op> {
    let mut rng = SplitMix64::new(seed);
    let step = |s: u32| {
        let key = 1 + rng.gen_u64(mix.keys);
        let year = 1900 + s % 120;
        let (roll, mut bound) = (rng.gen_u64(mix.weights.iter().sum()), 0);
        // The classes whose cumulative weight the roll has passed.
        let passed = mix
            .weights
            .iter()
            .take_while(|&&w| {
                bound += w;
                bound <= roll
            })
            .count();
        match passed {
            0 => Op::Put(paper(key, Some(year))),
            1 => Op::Delete(key),
            2 => Op::Get(key),
            3 => Op::Scan(vec![lt(paper_lanes::YEAR, year.into())]),
            _ => Op::Repair,
        }
    };
    (0..n).map(step).collect()
}

/// The version histories the differential suites reconcile, each on a
/// unique-key refs table (`Table::Refs { unique: true }`).
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

    /// The writes of this history.
    pub fn writes(self) -> Vec<Op> {
        let rec = |src: u64, year: u64| {
            let mut v = Vec::with_capacity(20);
            Ref { src, dst: src * 7, year: year as u32 }.encode_into(&mut v);
            Op::Put(v)
        };
        let mut writes: Vec<Op> = match self {
            Churn::Flushed | Churn::TailInMemtable => (1..=100u64)
                .map(|k| match k {
                    1 => rec(k, 1500),
                    2 => rec(k, 2500),
                    _ => rec(k, 1960 + k * 37 % 60),
                })
                .chain([Op::Flush])
                .chain((1..=50u64).map(|k| rec(k, 1970 + k * 11 % 45)))
                .chain((91..=100).map(Op::Delete))
                .collect(),
            Churn::NewerFails => (1..=4_000u64)
                .map(|k| rec(k, 2000 + k % 20))
                .chain([Op::Flush])
                .chain((1..=4_000u64).step_by(2).map(|k| rec(k, 1980 + k % 20)))
                .chain([Op::Delete(4_000)])
                .collect(),
            Churn::BloomMiss => (1..6_000u64)
                .step_by(2)
                .map(|k| rec(k, 2000 + k % 20))
                .chain([Op::Flush])
                .chain((2..=6_000u64).step_by(2).map(|k| rec(k, 1990 + k % 20)))
                .collect(),
        };
        if self != Churn::TailInMemtable {
            writes.push(Op::Flush);
        }
        writes
    }
}

// ---------------------------------------------------------------- model

/// What a read returned (raw: in the store's order) or should return
/// (canonical: records in key order).
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// A write, a persist, a power cycle or a repair went through.
    Done,
    Record(Option<Vec<u8>>),
    /// A batched GET's per-key outcomes, in key-list order.
    Batch(Vec<NkvResult<Option<Vec<u8>>>>),
    /// A SCAN's or RANGE_SCAN's records (its count is their number).
    Records(Vec<Vec<u8>>),
    /// An aggregate's `(value, any)`.
    Agg(u64, bool),
    /// The op failed with an error its weather allows.
    Failed(NkvError),
}

impl Answer {
    /// A scan's answer from its raw bytes, holding it to its count.
    pub fn records(bytes: &[u8], count: u64, width: usize) -> Answer {
        assert_eq!(bytes.len() as u64, count * width as u64, "whole records, as many as counted");
        Answer::Records(bytes.chunks_exact(width).map(<[u8]>::to_vec).collect())
    }

    pub fn from_outcome(outcome: PlanOutcome, table: Table) -> Answer {
        match outcome {
            PlanOutcome::Records { records, count, .. } => {
                Answer::records(&records, count, table.width())
            }
            PlanOutcome::Aggregate { value, any, .. } => Answer::Agg(value, any),
            PlanOutcome::Point { record, .. } => Answer::Record(record),
            PlanOutcome::Batch { results, .. } => Answer::Batch(results),
        }
    }

    /// Records in key order (versions of one key, which only a
    /// multi-record table holds, by their bytes).
    pub fn canonical(mut self) -> Answer {
        if let Answer::Records(recs) = &mut self {
            recs.sort_by(|a, b| (key_of(a), a).cmp(&(key_of(b), b)));
        }
        self
    }

    /// Whether this raw answer is the model's `want`, up to record order
    /// and the batch slots that failed as `weather` allows.
    fn agrees(&self, want: &Answer, weather: Weather) -> bool {
        match (self, want) {
            (Answer::Batch(got), Answer::Batch(want)) => {
                got.len() == want.len()
                    && got.iter().zip(want).all(|(g, w)| match g {
                        Err(e) => weather.allows(e),
                        ok => ok == w,
                    })
            }
            _ => self.clone().canonical() == *want,
        }
    }
}

/// Lane `lane` of a record, read off the layouts `paper_lanes` (id, year,
/// venue, n_cits, n_refs) and `ref_lanes` (src, dst, year) name — not
/// through the PE's compiled filter program.
fn lane_value(rec: &[u8], lane: u32) -> u64 {
    let fields: &[(usize, usize)] = match rec.len() {
        80 => &[(0, 8), (8, 4), (12, 4), (16, 4), (20, 4)],
        20 => &[(0, 8), (8, 8), (16, 4)],
        n => panic!("the model has no lane layout for {n}-byte records"),
    };
    let (at, len) = fields[lane as usize];
    let mut v = [0u8; 8];
    v[..len].copy_from_slice(&rec[at..at + len]);
    u64::from_le_bytes(v)
}

/// Whether `rec` passes every rule (standard operator codes: nop, ne,
/// eq, gt, ge, lt, le).
fn passes(rec: &[u8], rules: &[FilterRule]) -> bool {
    rules.iter().all(|r| {
        let v = lane_value(rec, r.lane);
        match r.op_code {
            0 => true,
            1 => v != r.value,
            2 => v == r.value,
            3 => v > r.value,
            4 => v >= r.value,
            5 => v < r.value,
            6 => v <= r.value,
            code => panic!("the model has no operator code {code}"),
        }
    })
}

/// The reference store: what acknowledged writes left, what the last
/// acknowledged persist made durable, and what a persist that power was
/// cut under may have.
#[derive(Debug, Clone)]
pub struct Model {
    table: Table,
    /// Keyed by record key, or on a multi-record table by arrival: every
    /// version stays a record and a DELETE hides none.
    map: Map,
    arrivals: u64,
    durable: Option<Map>,
    in_flight: Option<Map>,
    /// Power was cut: ops fail until the next power cycle.
    down: bool,
    cuts: u32,
}

impl Model {
    pub fn new(table: Table) -> Model {
        Model {
            table,
            map: Map::new(),
            arrivals: 0,
            durable: None,
            in_flight: None,
            down: false,
            cuts: 0,
        }
    }

    fn multi_record(&self) -> bool {
        self.table == Table::Refs { unique: false }
    }

    /// Apply an acknowledged op.
    pub fn apply(&mut self, op: &Op) {
        match op {
            Op::Put(rec) if self.multi_record() => {
                self.arrivals += 1;
                self.map.insert(self.arrivals, rec.clone());
            }
            Op::Put(rec) => {
                self.map.insert(key_of(rec), rec.clone());
            }
            Op::Delete(key) if !self.multi_record() => {
                self.map.remove(key);
            }
            Op::Persist => self.durable = Some(self.map.clone()),
            _ => {}
        }
    }

    /// What `op` must answer.
    pub fn answer(&self, op: &Op) -> Answer {
        let records = |keep: &dyn Fn(&[u8]) -> bool| {
            Answer::Records(self.map.values().filter(|r| keep(r)).cloned().collect()).canonical()
        };
        match op {
            Op::Get(_) | Op::MultiGet(_) if self.multi_record() => {
                panic!("a multi-record table has no point reads")
            }
            Op::Get(key) => Answer::Record(self.get(*key).cloned()),
            Op::MultiGet(keys) => {
                Answer::Batch(keys.iter().map(|k| Ok(self.get(*k).cloned())).collect())
            }
            Op::Scan(rules) => records(&|r| passes(r, rules)),
            Op::RangeScan(lo, hi) => records(&|r| (*lo..*hi).contains(&key_of(r))),
            Op::Aggregate(rules, agg, lane) => {
                let lanes =
                    self.map.values().filter(|r| passes(r, rules)).map(|r| lane_value(r, *lane));
                fold(lanes, *agg)
            }
            _ => Answer::Done,
        }
    }

    /// A write failed because power was cut under it.
    fn cut(&mut self, op: &Op) {
        self.down = true;
        self.cuts += 1;
        if *op == Op::Persist {
            self.in_flight = Some(self.map.clone());
        }
    }

    /// Power came back and the device recovered `state`: the last
    /// acknowledged persist's, or the one power was cut under — never a
    /// torn or an older one.
    fn reboot(&mut self, state: Answer) -> Result<(), String> {
        let state = state.canonical();
        let is = |m: &Map| Answer::Records(m.values().cloned().collect()).canonical() == state;
        let acknowledged = self.durable.clone().unwrap_or_default();
        if is(&acknowledged) {
            self.map = acknowledged;
        } else if let Some(in_flight) = self.in_flight.take().filter(is) {
            self.map = in_flight.clone();
            self.durable = Some(in_flight);
        } else {
            return Err(format!("recovered {state:?}: neither acknowledged nor in flight"));
        }
        (self.in_flight, self.down) = (None, false);
        Ok(())
    }

    /// Power cuts seen so far.
    pub fn cuts(&self) -> u32 {
        self.cuts
    }

    pub fn get(&self, key: u64) -> Option<&Vec<u8>> {
        self.map.get(&key)
    }

    pub fn keys(&self) -> Vec<u64> {
        self.map.keys().copied().collect()
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }
}

/// `agg` over `values`: `(value, any)`, wrapping like the accumulator.
fn fold(values: impl Iterator<Item = u64>, agg: AggOp) -> Answer {
    let v: Vec<u64> = values.collect();
    let value = match agg {
        AggOp::Count => v.len() as u64,
        AggOp::Sum => v.iter().fold(0u64, |a, x| a.wrapping_add(*x)),
        AggOp::Min => v.iter().copied().min().unwrap_or(0),
        AggOp::Max => v.iter().copied().max().unwrap_or(0),
    };
    Answer::Agg(value, !v.is_empty())
}

// -------------------------------------------------------------- weather

/// The named fault plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Weather {
    Clean,
    /// 1 % transient read failures: retries absorb every one.
    TransientReads,
    /// 20 % transient read failures: 3 retries still absorb every one.
    TransientStorm,
    /// 5 % transient reads and 10 % correctable ECC: a read may exhaust
    /// its retries.
    FlashStorm,
    /// The flash storm plus 10 % PE hangs, which degrade blocks to the
    /// ARM: a read may exhaust its retries.
    FlashAndHangStorm,
    /// Mild ECC degradation (low enough that pages survive until a
    /// repair) and 10 % PE hangs, which degrade blocks to the ARM.
    EccAndHangs,
    /// 25 % PE hangs: the watchdog and the ARM absorb every one.
    HangBursts,
    /// Every PE job hangs: the watchdog retires every PE.
    HangStorm,
    /// Transient reads, correctable ECC, DRAM stall bursts and PE hangs
    /// at once, plus one low page pinned to correctable ECC so repair
    /// has a target. A read may exhaust its retries.
    Chaos,
    /// The chaos mix at 5 / 20 / 5 / 20 % instead of 2 / 5 / 1 / 2 %.
    ChaosStorm,
    /// Power is cut during the n-th flash program.
    PowerCut(u64),
}

impl Weather {
    pub fn plan(self, seed: u64) -> Option<FaultPlan> {
        let quiet = || FaultPlan { seed, ..FaultPlan::default() };
        let flash = || FaultPlan { transient_read_p: 0.05, correctable_p: 0.10, ..quiet() };
        let chaos =
            |[transient_read_p, correctable_p, dram_stall_p, pe_hang_p]: [f64; 4]| FaultPlan {
                transient_read_p,
                correctable_p,
                dram_stall_p,
                dram_stall_ns: (5_000, 50_000),
                pe_hang_p,
                schedule: vec![ScheduledFault {
                    addr: PhysAddr { channel: 0, lun: 0, page: 2 },
                    kind: FlashFaultKind::Correctable,
                }],
                ..quiet()
            };
        Some(match self {
            Weather::Clean => return None,
            Weather::TransientReads => FaultPlan { transient_read_p: 0.01, ..quiet() },
            Weather::TransientStorm => FaultPlan { transient_read_p: 0.2, ..quiet() },
            Weather::FlashStorm => flash(),
            Weather::FlashAndHangStorm => FaultPlan { pe_hang_p: 0.10, ..flash() },
            Weather::EccAndHangs => FaultPlan { correctable_p: 0.04, pe_hang_p: 0.10, ..quiet() },
            Weather::HangBursts => FaultPlan { pe_hang_p: 0.25, ..quiet() },
            Weather::HangStorm => FaultPlan { pe_hang_p: 1.0, ..quiet() },
            Weather::Chaos => chaos([0.02, 0.05, 0.01, 0.02]),
            Weather::ChaosStorm => chaos([0.05, 0.2, 0.05, 0.2]),
            Weather::PowerCut(n) => FaultPlan { power_cut_at_write: Some(n), ..quiet() },
        })
    }

    /// Whether a read may fail with `e` under this weather (never a
    /// panic, never wrong data).
    pub fn allows(self, e: &NkvError) -> bool {
        use Weather::*;
        let flash = matches!(e, NkvError::RetriesExhausted { .. } | NkvError::Flash(_));
        match self {
            FlashStorm | FlashAndHangStorm | Chaos | ChaosStorm => flash,
            _ => false,
        }
    }
}

// -------------------------------------------------------------- stores

/// Which tier a read runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    Forced(Backend),
    /// The tier rule's choice (`nkv::Tier::Adaptive`).
    Adaptive,
    /// A seeded coin between Software and Hardware, per op.
    Coin,
}

/// One configuration of the lattice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cfg {
    pub table: Table,
    pub tier: Tier,
    /// Parallel PE job streams (0 = the serial dispatch), set by [`run`].
    pub streams: usize,
    pub cache: bool,
    /// Shards of an `NkvCluster`, or 0 for a bare `NkvDb`.
    pub devices: usize,
    pub read_policy: ReadPolicy,
    pub weather: Weather,
    /// Seeds the weather's fault plan and the tier coin.
    pub seed: u64,
}

impl Default for Cfg {
    fn default() -> Cfg {
        Cfg {
            table: Table::Papers { pes: 1, c1: Some(4) },
            tier: Tier::Forced(Backend::Software),
            streams: 0,
            cache: false,
            devices: 0,
            read_policy: ReadPolicy::Available,
            weather: Weather::Clean,
            seed: 0,
        }
    }
}

impl Cfg {
    pub fn on(self, backend: Backend) -> Cfg {
        Cfg { tier: Tier::Forced(backend), ..self }
    }

    /// A store of this configuration holding `bulk` (bulk-loaded, in key
    /// order) and then `writes`, with its model. The weather arrives last.
    pub fn build(&self, bulk: Vec<Vec<u8>>, writes: &[Op]) -> (Store, Model) {
        let table = self.table.name();
        let mut store = if self.devices == 0 {
            let mut db = NkvDb::default_db();
            if self.cache {
                db.enable_cache(CACHE_BUDGET);
            }
            db.create_table(table, self.table.config()).unwrap();
            if !bulk.is_empty() {
                db.bulk_load(table, bulk.iter().cloned()).unwrap();
            }
            Store::Db(db)
        } else {
            assert!(!self.cache && self.weather == Weather::Clean, "fleets run uncached and clean");
            let cfg = ClusterConfig {
                devices: self.devices,
                read_policy: self.read_policy,
                ..ClusterConfig::default()
            };
            let mut fleet = NkvCluster::new(cfg).unwrap();
            fleet.create_table(table, self.table.config()).unwrap();
            if !bulk.is_empty() {
                fleet.bulk_load(table, bulk.clone()).unwrap();
            }
            Store::Fleet(fleet)
        };
        let mut model = Model::new(self.table);
        bulk.into_iter().for_each(|rec| model.apply(&Op::Put(rec)));
        run(&Cfg { weather: Weather::Clean, ..*self }, &mut store, &mut model, writes);
        if let Some(plan) = self.weather.plan(self.seed) {
            let db = store.db();
            db.enable_observability(1 << 14);
            db.platform_mut().install_faults(&plan);
        }
        (store, model)
    }

    /// [`build`](Self::build) on keys `1..=n` ([`record_for`]), persisted.
    pub fn loaded(&self, n: u64) -> (Store, Model) {
        self.build((1..=n).map(record_for).collect(), &[Op::Persist])
    }

    /// [`build`](Self::build) on the first `n` papers of the 1/4096-scale
    /// graph, then PUTs that overwrite every `step`-th of them from
    /// `first` (`n_cits` + 1 000), so reconciliation has work to do.
    pub fn seeded(&self, n: u64, first: usize, step: usize) -> (Store, Model) {
        let bulk = papers(n);
        let overwrite = |rec: &Vec<u8>| {
            let mut p = Paper::decode(rec);
            p.n_cits = p.n_cits.wrapping_add(1_000);
            Op::Put(encode(&p))
        };
        let puts: Vec<Op> = bulk.iter().skip(first).step_by(step).map(overwrite).collect();
        self.build(bulk, &puts)
    }
}

/// A device or a fleet.
#[allow(clippy::large_enum_variant)] // one store per test: a box buys nothing
pub enum Store {
    Db(NkvDb),
    Fleet(NkvCluster),
}

impl Store {
    pub fn db(&mut self) -> &mut NkvDb {
        match self {
            Store::Db(db) => db,
            Store::Fleet(_) => panic!("a fleet has no single device"),
        }
    }

    pub fn fleet(&mut self) -> &mut NkvCluster {
        match self {
            Store::Fleet(fleet) => fleet,
            Store::Db(_) => panic!("a device is not a fleet"),
        }
    }

    fn write(&mut self, table: &str, op: &Op) -> NkvResult<()> {
        match (self, op) {
            (Store::Db(db), Op::Put(rec)) => db.put(table, rec.clone()),
            (Store::Db(db), Op::Delete(key)) => db.delete(table, *key),
            (Store::Db(db), Op::Flush) => db.flush(table),
            (Store::Db(db), Op::Persist) => db.persist(),
            (Store::Db(db), Op::Repair) => db.read_repair(3).and_then(|_| db.reset_pes(table)),
            (Store::Fleet(f), Op::Put(rec)) => f.put(table, rec.clone()),
            (Store::Fleet(f), Op::Delete(key)) => f.delete(table, *key),
            (Store::Fleet(f), Op::Flush) => f.flush(table),
            (Store::Fleet(f), Op::Persist) => f.persist(),
            (_, op) => panic!("{op:?} is not a write of this store"),
        }
    }

    /// Run a read on `tier`. A fleet's answer must come from every shard;
    /// its report is its span.
    fn read(
        &mut self,
        t: Table,
        tier: nkv::Tier,
        op: &LogicalOp,
    ) -> NkvResult<(Answer, SimReport)> {
        let outcome = match self {
            Store::Db(db) => db.execute(t.name(), op, tier)?,
            Store::Fleet(fleet) => {
                let (outcome, missing) = fleet.execute(t.name(), op, tier)?;
                assert!(missing.is_empty(), "a clean fleet answers from every shard: {missing:?}");
                outcome
            }
        };
        let report = *outcome.report();
        let answer = match (Answer::from_outcome(outcome, t), op) {
            // A one-key batch lowers to the point lookup.
            (Answer::Record(r), LogicalOp::MultiGet { .. }) => Answer::Batch(vec![Ok(r)]),
            (answer, _) => answer,
        };
        Ok((answer, report))
    }

    /// Reboot a device from its flash image and recover it; a device
    /// that never persisted comes back blank. DRAM does not survive: a
    /// cached device comes back with an empty cache.
    fn power_cycle(&mut self, cfg: &Cfg, durable: bool) -> NkvResult<()> {
        let db = self.db();
        let mut fresh = CosmosPlatform::default_platform();
        fresh.flash = db.platform_mut().flash.clone();
        fresh.flash.reboot();
        if cfg.cache {
            fresh.enable_cache(CACHE_BUDGET);
        }
        match NkvDb::recover(fresh, vec![(cfg.table.name().into(), cfg.table.config())]) {
            Ok(recovered) => *db = recovered,
            Err(_) if !durable => {
                *self = Cfg { weather: Weather::Clean, ..*cfg }.build(vec![], &[]).0
            }
            Err(e) => return Err(e),
        }
        Ok(())
    }
}

/// Trip `kind` on a fleet's `shard` device from its next op on.
pub fn trip(fleet: &mut NkvCluster, shard: usize, kind: DeviceFaultKind) {
    fleet
        .shard_db(shard)
        .unwrap()
        .platform_mut()
        .install_device_fault(DeviceFaultPlan { kind, after_ops: 0 });
}

/// Apply `ops` to `store` and `model` under `cfg`, checking each read
/// against the model or `cfg.weather`. Returns the raw answers.
pub fn run(cfg: &Cfg, store: &mut Store, model: &mut Model, ops: &[Op]) -> Vec<Answer> {
    run_reports(cfg, store, model, ops).into_iter().map(|(answer, _)| answer).collect()
}

/// [`run`], with each op's report (a default one for all but reads).
pub fn run_reports(
    cfg: &Cfg,
    store: &mut Store,
    model: &mut Model,
    ops: &[Op],
) -> Vec<(Answer, SimReport)> {
    let (t, none) = (cfg.table, SimReport::default());
    match store {
        Store::Db(db) => db.set_parallel_pes(t.name(), cfg.streams),
        Store::Fleet(fleet) => fleet.set_parallel_pes(t.name(), cfg.streams),
    }
    .unwrap();
    let mut coin = SplitMix64::new(cfg.seed ^ 0xC0_14);
    let mut out = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        let replay =
            |what: String| format!("{what}\n  under {cfg:?}\n  replay: vec!{:?}", &ops[..=i]);
        let tier = match cfg.tier {
            Tier::Forced(backend) => nkv::Tier::Forced(backend),
            Tier::Adaptive => nkv::Tier::Adaptive,
            Tier::Coin if coin.gen_bool(0.5) => nkv::Tier::Forced(Backend::Hardware),
            Tier::Coin => nkv::Tier::Forced(Backend::Software),
        };
        out.push(match op.query() {
            _ if model.down && *op != Op::PowerCycle => {
                (Answer::Failed(NkvError::Flash(FlashError::PowerCut)), none)
            }
            Some(query) => match store.read(t, tier, &query) {
                Ok((answer, report)) => {
                    let want = model.answer(op);
                    let agrees = answer.agrees(&want, cfg.weather);
                    assert!(agrees, "{}", replay(format!("{answer:?}, the model: {want:?}")));
                    (answer, report)
                }
                Err(e) if cfg.weather.allows(&e) => (Answer::Failed(e), none),
                Err(e) => panic!("{}", replay(format!("{e}"))),
            },
            None if *op == Op::PowerCycle => {
                if matches!(cfg.weather, Weather::PowerCut(_)) {
                    let torn = store.db().platform_mut().flash.fault_stats().torn_writes;
                    let what = format!("{torn} torn programs after {} cuts", model.cuts);
                    assert_eq!(torn, u64::from(model.cuts), "{}", replay(what));
                }
                let everything = LogicalOp::Scan { rules: vec![] };
                let state = store
                    .power_cycle(cfg, model.durable.is_some())
                    .and_then(|()| store.read(t, Backend::Software.into(), &everything));
                let rebooted = state.map_err(|e| e.to_string()).and_then(|(s, _)| model.reboot(s));
                rebooted.unwrap_or_else(|e| panic!("{}", replay(e)));
                (Answer::Done, none)
            }
            None => match store.write(t.name(), op) {
                Ok(()) => {
                    model.apply(op);
                    (Answer::Done, none)
                }
                Err(e @ NkvError::Flash(FlashError::PowerCut))
                    if matches!(cfg.weather, Weather::PowerCut(_)) =>
                {
                    model.cut(op);
                    (Answer::Failed(e), none)
                }
                Err(e) => panic!("{}", replay(format!("{e}"))),
            },
        });
    }
    out
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
