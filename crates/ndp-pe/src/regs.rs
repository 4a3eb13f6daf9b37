//! The control register file (architectural template component (a)).
//!
//! The register map is the contract between a PE and its firmware. Each
//! window of it is declared once, below, as a table of `(name, offset,
//! access, doc)` [`Row`]s; a PE's map (`RegisterMap::of`) walks the windows
//! its variant has. `ndp-swgen` prints that map as the C header of the
//! paper's Fig. 6, `template` prices a `RegFile` word per register, and
//! [`PeSim`](crate::PeSim) decodes every MMIO access through it.
//!
//! *Layout.* Each register is a 32-bit word at a byte offset of the PE's
//! AXI-Lite window; `fc = 0x30 + 0x10 × stages` is `FILTER_COUNTER`'s.
//!
//! | window | offsets | rows |
//! |---|---|---|
//! | fixed | `0x00`…`0x2C` | [`FIXED`]: `START`, `STATUS`, job descriptor, results, `VERSION` |
//! | stage `s` | `0x30 + 0x10 × s` + `0x0`…`0xC` | [`STAGE`]: lane, operator, 64-bit value |
//! | counter | `fc` | [`COUNTER`]: `FILTER_COUNTER` |
//! | aggregation | `fc + 0x04`…`0x10` | [`AGG`]; reserved, unmapped, without the unit |
//! | perf bank | `fc + 0x14`…`0x34` | [`PERF`]: `CNT_CTRL`, then eight counters |
//! | stage drops | `fc + 0x38 + 4 × s` | [`PERF_STAGE`]: a counter per stage |
//!
//! A generated PE has every window (the aggregation rows only with an
//! Aggregation Unit), so the perf bank's place depends on the stage count
//! alone; the hand-crafted PE of \[1\] has the first three, with one stage.
//!
//! *Access rule.* A read-write row reads back the word last written to it;
//! a read-only row ignores writes and reads what the PE put there; an
//! unmapped or unaligned offset reads 0 and ignores writes (an AXI-Lite
//! slave that answers OKAY and discards). Four registers act otherwise:
//! writing 1 to `START` launches the block and clears `STATUS`'s DONE bit;
//! `STATUS` is bit 0 BUSY, bit 1 DONE; writing 1 to `CNT_CTRL` clears
//! every counter; both strobes read 0. The `CNT_*` counters count across
//! blocks, 64 bit wide in the model, and read as their low word, as a
//! wrapping 32-bit hardware counter would.

use crate::oracle::FilterRule;
use crate::pipeline::{BlockResult, PerfCounters};
use crate::template::PeVariant;
use ndp_ir::PeConfig;

/// Register access class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Read/write from the CPU.
    ReadWrite,
    /// Read-only status/result register.
    ReadOnly,
}

use Access::{ReadOnly as RO, ReadWrite as RW};

/// One register of a window: `(name, offset in the window, access, doc)`.
/// In a per-stage row, `{s}` in the name and the doc stands for the stage.
pub type Row = (&'static str, u32, Access, &'static str);

/// Offsets of the fixed window's rows and of a stage group's.
pub mod offsets {
    pub const START: u32 = 0x00;
    pub(crate) const STATUS: u32 = 0x04;
    pub const SRC_ADDR_LO: u32 = 0x08;
    pub const SRC_ADDR_HI: u32 = 0x0C;
    pub const SRC_LEN: u32 = 0x10;
    pub const DST_ADDR_LO: u32 = 0x14;
    pub const DST_ADDR_HI: u32 = 0x18;
    pub const DST_CAPACITY: u32 = 0x1C;
    pub const RESULT_BYTES: u32 = 0x20;
    pub const TUPLES_IN: u32 = 0x24;
    pub const TUPLES_OUT: u32 = 0x28;
    pub(crate) const VERSION: u32 = 0x2C;
    pub const STAGE_BASE: u32 = 0x30;
    pub const STAGE_STRIDE: u32 = 0x10;
    pub const STAGE_FIELD: u32 = 0x0;
    pub const STAGE_OP: u32 = 0x4;
    pub const STAGE_VAL_LO: u32 = 0x8;
    pub const STAGE_VAL_HI: u32 = 0xC;

    /// Offset of stage `s`'s group.
    pub const fn stage(s: u32) -> u32 {
        STAGE_BASE + s * STAGE_STRIDE
    }

    /// `fc` of a PE with `stages` stages.
    pub const fn filter_counter(stages: u32) -> u32 {
        stage(stages)
    }
}

/// Offsets of the aggregation rows, relative to `fc`.
pub mod agg_offsets {
    pub const AGG_FIELD: u32 = 0x4;
    pub const AGG_OP: u32 = 0x8;
    pub const AGG_RESULT_LO: u32 = 0xC;
    pub const AGG_RESULT_HI: u32 = 0x10;
}

/// Offsets of the perf bank's rows, relative to `fc`.
pub mod perf_offsets {
    pub const CNT_CTRL: u32 = 0x14;
    pub const CNT_TUPLES_IN: u32 = 0x18;
    pub const CNT_TUPLES_OUT: u32 = 0x1C;
    pub const CNT_IN_STALL: u32 = 0x20;
    pub const CNT_OUT_STALL: u32 = 0x24;
    pub const CNT_ACTIVE: u32 = 0x28;
    pub const CNT_IDLE: u32 = 0x2C;
    pub const CNT_LOAD_BEATS: u32 = 0x30;
    pub const CNT_STORE_BEATS: u32 = 0x34;
    pub const CNT_STAGE_DROP_BASE: u32 = 0x38;
}

use agg_offsets::*;
use offsets::*;
use perf_offsets::*;

/// The fixed window, at 0.
pub const FIXED: &[Row] = &[
    ("START", START, RW, "Write 1 to start processing the configured block"),
    ("STATUS", STATUS, RO, "Bit 0: BUSY, bit 1: DONE"),
    ("SRC_ADDR_LO", SRC_ADDR_LO, RW, "Source address in PS-DRAM, low 32 bit"),
    ("SRC_ADDR_HI", SRC_ADDR_HI, RW, "Source address in PS-DRAM, high 32 bit"),
    ("SRC_LEN", SRC_LEN, RW, "Bytes to load (partial blocks supported by this work)"),
    ("DST_ADDR_LO", DST_ADDR_LO, RW, "Destination address in PS-DRAM, low 32 bit"),
    ("DST_ADDR_HI", DST_ADDR_HI, RW, "Destination address in PS-DRAM, high 32 bit"),
    ("DST_CAPACITY", DST_CAPACITY, RW, "Result buffer capacity in bytes"),
    ("RESULT_BYTES", RESULT_BYTES, RO, "Bytes of result written back"),
    ("TUPLES_IN", TUPLES_IN, RO, "Tuples parsed from the input stream"),
    ("TUPLES_OUT", TUPLES_OUT, RO, "Tuples that passed all filter stages"),
    ("VERSION", VERSION, RO, "Template generation version"),
];

/// One Filtering Unit's group, at [`offsets::stage`].
pub const STAGE: &[Row] = &[
    ("FILTER_FIELD_{s}", STAGE_FIELD, RW, "Stage {s}: comparator lane select"),
    ("FILTER_OP_{s}", STAGE_OP, RW, "Stage {s}: operator code (0 = nop)"),
    ("FILTER_VAL_LO_{s}", STAGE_VAL_LO, RW, "Stage {s}: reference value, low 32 bit"),
    ("FILTER_VAL_HI_{s}", STAGE_VAL_HI, RW, "Stage {s}: reference value, high 32 bit"),
];

/// At `fc`.
pub const COUNTER: &[Row] =
    &[("FILTER_COUNTER", 0, RO, "Tuples that passed the final filtering stage")];

/// The Aggregation Unit, relative to `fc`; `AGG_OP` takes an
/// `ndp_ir::AggOp::code`.
pub const AGG: &[Row] = &[
    ("AGG_FIELD", AGG_FIELD, RW, "Aggregation Unit: lane select"),
    ("AGG_OP", AGG_OP, RW, "Aggregation Unit: reduction select (0 = off)"),
    ("AGG_RESULT_LO", AGG_RESULT_LO, RO, "Aggregation accumulator, low 32 bit"),
    ("AGG_RESULT_HI", AGG_RESULT_HI, RO, "Aggregation accumulator, high 32 bit"),
];

/// The perf bank, relative to `fc`; the counters in [`PerfCounters`] order.
pub const PERF: &[Row] = &[
    ("CNT_CTRL", CNT_CTRL, RW, "Write 1 to clear all performance counters"),
    ("CNT_TUPLES_IN", CNT_TUPLES_IN, RO, "Perf: tuples parsed since last clear"),
    ("CNT_TUPLES_OUT", CNT_TUPLES_OUT, RO, "Perf: tuples that passed all stages"),
    ("CNT_IN_STALL", CNT_IN_STALL, RO, "Perf: cycles the Load Unit stalled on a full buffer"),
    ("CNT_OUT_STALL", CNT_OUT_STALL, RO, "Perf: cycles a tuple waited on the output buffer"),
    ("CNT_ACTIVE", CNT_ACTIVE, RO, "Perf: cycles with pipeline progress"),
    ("CNT_IDLE", CNT_IDLE, RO, "Perf: cycles without pipeline progress"),
    ("CNT_LOAD_BEATS", CNT_LOAD_BEATS, RO, "Perf: 64-bit beats loaded from DRAM"),
    ("CNT_STORE_BEATS", CNT_STORE_BEATS, RO, "Perf: 64-bit beats stored to DRAM"),
];

/// Stage 0's drop counter, relative to `fc`; stage `s`'s is `4 × s` on.
pub const PERF_STAGE: &[Row] = &[("CNT_STAGE_DROP_{s}", CNT_STAGE_DROP_BASE, RO, DROP_DOC)];
const DROP_DOC: &str = "Perf: tuples dropped by filtering stage {s}";

/// Value reported by the `VERSION` register of this template generation
/// (minor bump 1 → 2: the performance-counter bank joined the contract).
pub(crate) const TEMPLATE_VERSION: u32 = 0x0002_0002;

/// `STATUS`'s DONE bit.
const DONE: u32 = 1 << 1;

/// One register of a PE's map: a table row placed at its offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegDef {
    /// Byte offset within the PE's register window.
    pub offset: u32,
    pub access: Access,
    name: &'static str,
    doc: &'static str,
    /// The stage of a per-stage row.
    stage: u32,
}

impl RegDef {
    /// Macro-style name (`FILTER_OP_0`).
    pub fn name(&self) -> String {
        stage_text(self.name, self.stage)
    }

    /// One-line description rendered into the generated header.
    pub fn doc(&self) -> String {
        stage_text(self.doc, self.stage)
    }
}

/// A row's `text` with `{s}` replaced by `stage`.
pub fn stage_text(text: &str, stage: u32) -> String {
    text.replace("{s}", &stage.to_string())
}

/// The register map of one PE.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegisterMap {
    pub regs: Vec<RegDef>,
    /// Number of filtering stages the map was generated for.
    pub stages: u32,
    /// Number of trailing perf-bank registers (0 for the PE of \[1\]).
    pub(crate) perf_regs: usize,
}

impl RegisterMap {
    /// The map of a generated PE for `cfg`.
    pub fn for_config(cfg: &PeConfig) -> Self {
        Self::of(cfg, PeVariant::Generated)
    }

    /// The map of `cfg`'s PE of `variant`: the one place the windows a PE
    /// has follow from its variant.
    pub(crate) fn of(cfg: &PeConfig, variant: PeVariant) -> Self {
        let generated = variant == PeVariant::Generated;
        let stages = if generated { cfg.stages } else { 1 };
        let (fc, gen) = (filter_counter(stages), u32::from(generated));
        // Each window: its rows, where, the stride between copies, copies.
        let windows: [(&[Row], u32, u32, u32); 6] = [
            (FIXED, 0, 0, 1),
            (STAGE, STAGE_BASE, STAGE_STRIDE, stages),
            (COUNTER, fc, 0, 1),
            (AGG, fc, 0, gen * u32::from(!cfg.aggregates.is_empty())),
            (PERF, fc, 0, gen),
            (PERF_STAGE, fc, 4, gen * stages),
        ];
        let regs = windows.into_iter().flat_map(|(rows, base, stride, copies)| {
            (0..copies).flat_map(move |s| {
                rows.iter().map(move |&(name, offset, access, doc)| RegDef {
                    offset: base + stride * s + offset,
                    access,
                    name,
                    doc,
                    stage: s,
                })
            })
        });
        let perf_regs = (gen * (PERF.len() as u32 + stages)) as usize;
        Self { regs: regs.collect(), stages, perf_regs }
    }

    /// Number of registers (determines the generated RegFile size).
    pub fn len(&self) -> usize {
        self.regs.len()
    }

    /// True if the map has no registers (never, in practice).
    pub fn is_empty(&self) -> bool {
        self.regs.is_empty()
    }

    /// Offset of the `FILTER_COUNTER` register.
    pub fn filter_counter_offset(&self) -> u32 {
        filter_counter(self.stages)
    }
}

/// Memory-mapped I/O interface of a PE as seen from the ARM core.
pub trait Mmio {
    /// Read the 32-bit register at byte offset `offset`.
    fn mmio_read(&mut self, offset: u32) -> u32;

    /// Write the 32-bit register at byte offset `offset`.
    fn mmio_write(&mut self, offset: u32, value: u32);
}

/// The register file of one PE: a 32-bit word per word offset to the end
/// of its map, with the access of the row mapped there. Every MMIO access
/// is decoded through it by the module doc's rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RegState {
    /// `(access, word)` per word offset; no access where no row is.
    words: Vec<(Option<Access>, u32)>,
    stages: u32,
    /// `fc`, and the offset of `CNT_CTRL`: every mapped offset past it is
    /// a counter.
    fc: u32,
    cnt_ctrl: u32,
    /// A `START` was written and the PE has not run the block yet.
    pub(crate) start_pending: bool,
    /// The counters behind the `CNT_*` rows.
    pub(crate) perf: PerfCounters,
}

impl RegState {
    /// The reset state of `map`: every word 0 (every filter operator is
    /// `nop`) but `VERSION`.
    pub(crate) fn new(map: &RegisterMap) -> Self {
        let end = map.regs.iter().map(|r| r.offset / 4 + 1).max().unwrap_or(0);
        let mut words = vec![(None, 0); end as usize];
        for r in &map.regs {
            words[(r.offset / 4) as usize].0 = Some(r.access);
        }
        let (stages, fc) = (map.stages, map.filter_counter_offset());
        let perf = PerfCounters::new(stages);
        let mut regs =
            Self { words, stages, fc, cnt_ctrl: fc + CNT_CTRL, start_pending: false, perf };
        regs.set(VERSION, TEMPLATE_VERSION);
        regs
    }

    /// The word index of a mapped, aligned `offset`.
    fn slot(&self, offset: u32) -> Option<usize> {
        let i = (offset / 4) as usize;
        let mapped = self.words.get(i).is_some_and(|w| w.0.is_some());
        (offset.is_multiple_of(4) && mapped).then_some(i)
    }

    /// MMIO read.
    pub(crate) fn read(&self, offset: u32) -> u32 {
        match self.slot(offset) {
            Some(_) if offset > self.cnt_ctrl => {
                self.perf.word(((offset - self.cnt_ctrl) / 4 - 1) as usize)
            }
            Some(i) => self.words[i].1,
            None => 0,
        }
    }

    /// MMIO write. A strobe stores nothing, so it reads 0.
    pub(crate) fn write(&mut self, offset: u32, value: u32) {
        let Some(i) = self.slot(offset) else { return };
        let strobe = value & 1 != 0;
        if offset == START {
            self.start_pending |= strobe;
            if strobe {
                self.words[(STATUS / 4) as usize].1 &= !DONE;
            }
        } else if offset == self.cnt_ctrl {
            if strobe {
                self.perf.reset();
            }
        } else if self.words[i].0 == Some(RW) {
            self.words[i].1 = value;
        }
    }

    /// The word at `offset` as the datapath sees it (0 where unmapped).
    fn word(&self, offset: u32) -> u32 {
        self.slot(offset).map_or(0, |i| self.words[i].1)
    }

    /// The 64-bit value of a low/high word pair.
    fn wide(&self, lo: u32) -> u64 {
        u64::from(self.word(lo)) | u64::from(self.word(lo + 4)) << 32
    }

    /// Store a result into a row, whatever its access; nothing where the
    /// map has no row.
    fn set(&mut self, offset: u32, value: u32) {
        if let Some(i) = self.slot(offset) {
            self.words[i].1 = value;
        }
    }

    /// The job descriptor: `(SRC_ADDR, SRC_LEN, DST_ADDR, DST_CAPACITY)`.
    pub(crate) fn job(&self) -> (u64, u32, u64, u32) {
        let (src, dst) = (self.wide(SRC_ADDR_LO), self.wide(DST_ADDR_LO));
        (src, self.word(SRC_LEN), dst, self.word(DST_CAPACITY))
    }

    /// Each Filtering Unit's rule, in stage order.
    pub(crate) fn rules(&self) -> impl Iterator<Item = FilterRule> + '_ {
        (0..self.stages).map(|s| FilterRule {
            lane: self.word(stage(s) + STAGE_FIELD),
            op_code: self.word(stage(s) + STAGE_OP),
            value: self.wide(stage(s) + STAGE_VAL_LO),
        })
    }

    /// `(AGG_OP, AGG_FIELD)` on a PE with an Aggregation Unit.
    pub(crate) fn aggregate(&self) -> Option<(u32, u32)> {
        let (op, field) = (self.fc + AGG_OP, self.fc + AGG_FIELD);
        self.slot(op).map(|_| (self.word(op), self.word(field)))
    }

    /// The end of a block: DONE, the result rows and, when the Aggregation
    /// Unit ran, its accumulator.
    pub(crate) fn finish(&mut self, res: &BlockResult, aggregate: Option<u64>) {
        self.set(STATUS, DONE);
        self.set(RESULT_BYTES, res.result_bytes);
        self.set(TUPLES_IN, res.tuples_in);
        self.set(TUPLES_OUT, res.tuples_out);
        self.set(self.fc, res.tuples_out);
        if let Some(v) = aggregate {
            self.set(self.fc + AGG_RESULT_LO, v as u32);
            self.set(self.fc + AGG_RESULT_HI, (v >> 32) as u32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membus::{MemBus, VecMem};
    use crate::{PeDevice, PeSim};
    use ndp_workload::SplitMix64;

    /// A PE of `stages` Filtering Units (0: hand-built, which the parser
    /// refuses) over two `u32` lanes, with or without an Aggregation Unit.
    fn cfg(stages: u32, agg: bool) -> PeConfig {
        let src = format!(
            "/* @autogen define parser P with input = T, output = T, stages = {}{} */
             typedef struct {{ uint32_t v; uint32_t w; }} T;",
            stages.max(1),
            if agg { ", aggregate = { sum }" } else { "" }
        );
        let mut cfg = ndp_ir::elaborate(&ndp_spec::parse(&src).unwrap(), "P").unwrap();
        cfg.stages = stages;
        cfg
    }

    fn by_name<'a>(map: &'a RegisterMap, name: &str) -> Option<&'a RegDef> {
        map.regs.iter().find(|r| r.name() == name)
    }

    /// The map of \[1\]'s PE and its reset register file.
    fn baseline() -> (RegisterMap, RegState) {
        let map = RegisterMap::of(&cfg(1, false), PeVariant::HandCrafted);
        let state = RegState::new(&map);
        (map, state)
    }

    fn state(stages: u32) -> RegState {
        RegState::new(&RegisterMap::for_config(&cfg(stages, false)))
    }

    #[test]
    fn map_has_fixed_plus_per_stage_registers() {
        let (m1, _) = baseline();
        let m3 = RegisterMap::for_config(&cfg(3, false));
        assert_eq!(m1.len(), 12 + 4 + 1);
        // ... and a generated PE's perf bank: CNT_CTRL, 8 counters and a
        // drop counter per stage.
        assert_eq!(m3.len(), 12 + 12 + 1 + 9 + 3);
        assert_eq!(by_name(&m3, "FILTER_VAL_HI_2").unwrap().offset, 0x30 + 2 * 0x10 + 0xC);
    }

    #[test]
    fn filter_counter_sits_after_last_stage_group() {
        let m = RegisterMap::for_config(&cfg(2, false));
        assert_eq!(m.filter_counter_offset(), 0x30 + 2 * 0x10);
        assert_eq!(by_name(&m, "FILTER_COUNTER").unwrap().offset, m.filter_counter_offset());
    }

    #[test]
    fn offsets_are_unique_and_word_aligned() {
        let m = RegisterMap::for_config(&cfg(5, false));
        let mut seen = std::collections::HashSet::new();
        for r in &m.regs {
            assert_eq!(r.offset % 4, 0, "{} not word aligned", r.name());
            assert!(seen.insert(r.offset), "duplicate offset {:#x}", r.offset);
        }
    }

    #[test]
    fn state_addr_halves_combine() {
        let mut s = state(1);
        s.write(offsets::SRC_ADDR_LO, 0xDEAD_BEEF);
        s.write(offsets::SRC_ADDR_HI, 0x1);
        assert_eq!(s.job().0, 0x1_DEAD_BEEF);
        assert_eq!(s.read(offsets::SRC_ADDR_LO), 0xDEAD_BEEF);
        assert_eq!(s.read(offsets::SRC_ADDR_HI), 0x1);
    }

    #[test]
    fn filter_value_halves_combine() {
        let mut s = state(2);
        let base = offsets::stage(1);
        s.write(base + offsets::STAGE_VAL_LO, 0x3333_2222);
        s.write(base + offsets::STAGE_VAL_HI, 0x0000_1111);
        let values: Vec<u64> = s.rules().map(|r| r.value).collect();
        assert_eq!(values, [0, 0x0000_1111_3333_2222]);
    }

    #[test]
    fn start_sets_pending_and_clears_done() {
        let mut s = state(1);
        s.finish(&BlockResult::default(), None);
        s.write(offsets::START, 1);
        assert!(s.start_pending);
        assert_eq!(s.read(offsets::STATUS), 0, "DONE cleared");
        // Writing 0 does nothing.
        let mut s2 = state(1);
        s2.write(offsets::START, 0);
        assert!(!s2.start_pending);
    }

    #[test]
    fn status_encodes_busy_and_done() {
        // A block runs inside `PeDevice::execute`, so BUSY is never seen
        // set: STATUS reads 0 until a block ends, then DONE.
        let mut s = state(1);
        assert_eq!(s.read(offsets::STATUS), 0);
        s.finish(&BlockResult::default(), None);
        assert_eq!(s.read(offsets::STATUS), 2);
    }

    #[test]
    fn out_of_range_stage_registers_are_inert() {
        let (_, mut s) = baseline();
        let beyond = offsets::stage(7);
        s.write(beyond, 0xFFFF);
        assert_eq!(s.read(beyond), 0);
    }

    #[test]
    fn read_only_registers_ignore_writes() {
        let mut s = state(1);
        s.finish(&BlockResult { tuples_in: 42, ..BlockResult::default() }, None);
        s.write(offsets::TUPLES_IN, 7);
        assert_eq!(s.read(offsets::TUPLES_IN), 42);
    }

    #[test]
    fn version_register_reports_template_generation() {
        let s = state(1);
        assert_eq!(s.read(offsets::VERSION), TEMPLATE_VERSION);
    }

    #[test]
    fn reset_filters_are_nop() {
        let s = state(3);
        assert!(s.rules().all(|r| r.op_code == 0));
    }

    #[test]
    fn generated_map_appends_perf_bank_after_agg_window() {
        let m = RegisterMap::for_config(&cfg(2, false));
        // 12 fixed + 2 * 4 stage regs + FILTER_COUNTER + (CNT_CTRL + 8
        // counters + 2 stage-drop counters).
        assert_eq!(m.perf_regs, 11);
        assert_eq!(m.len(), 12 + 8 + 1 + 11);
        let fc = m.filter_counter_offset();
        assert_eq!(by_name(&m, "CNT_CTRL").unwrap().offset, fc + perf_offsets::CNT_CTRL);
        assert_eq!(by_name(&m, "CNT_ACTIVE").unwrap().offset, fc + perf_offsets::CNT_ACTIVE);
        assert_eq!(
            by_name(&m, "CNT_STAGE_DROP_1").unwrap().offset,
            fc + perf_offsets::CNT_STAGE_DROP_BASE + 4
        );
        assert!(by_name(&m, "CNT_CTRL").unwrap().access == Access::ReadWrite);
        assert!(by_name(&m, "CNT_TUPLES_IN").unwrap().access == Access::ReadOnly);
    }

    #[test]
    fn baseline_map_has_no_perf_bank() {
        let (m, _) = baseline();
        assert_eq!(m.perf_regs, 0);
        assert!(by_name(&m, "CNT_CTRL").is_none());
    }

    #[test]
    fn generated_map_offsets_are_unique_and_word_aligned() {
        // Full map including aggregation *and* perf registers.
        let m = RegisterMap::for_config(&cfg(3, true));
        let mut seen = std::collections::HashSet::new();
        for r in &m.regs {
            assert_eq!(r.offset % 4, 0, "{} not word aligned", r.name());
            assert!(seen.insert(r.offset), "duplicate offset {:#x} ({})", r.offset, r.name());
        }
    }

    fn perf_state() -> RegState {
        let mut s = state(2);
        s.perf.tuples_in = 10;
        s.perf.tuples_out = 7;
        s.perf.stage_drops = vec![2, 1];
        s.perf.active = 40;
        s.perf.idle = 8;
        s
    }

    #[test]
    fn perf_counters_read_back_and_clear_via_cnt_ctrl() {
        let mut s = perf_state();
        let fc = offsets::filter_counter(2);
        assert_eq!(s.read(fc + perf_offsets::CNT_TUPLES_IN), 10);
        assert_eq!(s.read(fc + perf_offsets::CNT_TUPLES_OUT), 7);
        assert_eq!(s.read(fc + perf_offsets::CNT_STAGE_DROP_BASE), 2);
        assert_eq!(s.read(fc + perf_offsets::CNT_STAGE_DROP_BASE + 4), 1);
        assert_eq!(s.read(fc + perf_offsets::CNT_ACTIVE), 40);
        // Writes to the read-only counters are discarded.
        s.write(fc + perf_offsets::CNT_TUPLES_IN, 99);
        assert_eq!(s.read(fc + perf_offsets::CNT_TUPLES_IN), 10);
        // Writing 0 to CNT_CTRL is a no-op; writing 1 clears everything.
        s.write(fc + perf_offsets::CNT_CTRL, 0);
        assert_eq!(s.read(fc + perf_offsets::CNT_TUPLES_IN), 10);
        s.write(fc + perf_offsets::CNT_CTRL, 1);
        assert_eq!(s.read(fc + perf_offsets::CNT_TUPLES_IN), 0);
        assert_eq!(s.read(fc + perf_offsets::CNT_STAGE_DROP_BASE), 0);
        assert_eq!(s.perf.stage_drops.len(), 2, "stage layout survives the clear");
    }

    #[test]
    fn perf_counters_expose_low_32_bits() {
        let mut s = perf_state();
        s.perf.active = (1u64 << 32) + 5;
        let fc = offsets::filter_counter(2);
        assert_eq!(s.read(fc + perf_offsets::CNT_ACTIVE), 5, "wraps like a 32-bit counter");
    }

    #[test]
    fn perf_bank_is_inert_without_has_perf() {
        // A map without the bank ([1]'s): its offsets are unmapped.
        let (_, mut s) = baseline();
        s.perf.tuples_in = 10;
        let fc = offsets::filter_counter(1);
        assert_eq!(s.read(fc + perf_offsets::CNT_TUPLES_IN), 0);
        s.write(fc + perf_offsets::CNT_CTRL, 1);
        assert_eq!(s.perf.tuples_in, 10, "no perf bank, no clear");
    }

    /// Configure one seeded job through `map`'s rows and run it, so that
    /// every read-only row holds a result.
    fn run_one_block(pe: &mut PeSim, map: &RegisterMap, rng: &mut SplitMix64) {
        let mut mem = VecMem::new(1 << 17);
        let mut source = vec![0u8; 1 << 15];
        rng.fill_bytes(&mut source);
        mem.write_bytes(0, &source);
        pe.mmio_write(offsets::SRC_LEN, 1 << 14);
        pe.mmio_write(offsets::DST_ADDR_LO, 1 << 16);
        pe.mmio_write(offsets::DST_CAPACITY, 1 << 16);
        for s in 0..map.stages {
            pe.mmio_write(stage(s) + STAGE_FIELD, s % 2);
            pe.mmio_write(stage(s) + STAGE_OP, pe.config().op_code("lt").unwrap());
            pe.mmio_write(stage(s) + STAGE_VAL_LO, 0xE000_0000);
        }
        let fc = map.filter_counter_offset();
        pe.mmio_write(fc + AGG_OP, ndp_ir::AggOp::Sum.code());
        pe.mmio_write(offsets::START, 1);
        assert!(pe.execute(&mut mem).tuples_in > 0);
    }

    /// Every PE shape: generated with 0 (hand-built), 1, 3 and 8 stages,
    /// each with and without an Aggregation Unit, and \[1\]'s. At every
    /// byte offset to 64 bytes past the end of the map, a read-write row
    /// reads back what was written (the `START` and `CNT_CTRL` strobes read
    /// 0), a read-only row keeps its value, an unmapped or unaligned
    /// offset reads 0, and no write reaches another word.
    #[test]
    fn every_offset_decodes_the_way_the_map_says() {
        let mut rng = SplitMix64::new(0x7265_6773);
        let mut pes = Vec::new();
        for stages in [0, 1, 3, 8] {
            for agg in [false, true] {
                let map = RegisterMap::for_config(&cfg(stages, agg));
                pes.push((
                    format!("{stages} stages, aggregate {agg}"),
                    map,
                    PeSim::new(cfg(stages, agg)),
                ));
            }
        }
        let (map, _) = baseline();
        pes.push(("[1]".into(), map, PeSim::baseline(cfg(1, false)).unwrap()));
        for (what, map, mut pe) in pes {
            run_one_block(&mut pe, &map, &mut rng);
            let end = map.regs.iter().map(|r| r.offset + 4).max().unwrap() + 64;
            let image = |pe: &mut PeSim| (0..end).step_by(4).map(|o| pe.mmio_read(o)).collect();
            let (strobes, mut held) = ([START, map.filter_counter_offset() + CNT_CTRL], 0);
            // Downward: each counter is checked before CNT_CTRL clears the
            // bank, and STATUS before START clears DONE.
            for off in (0..end).rev() {
                let row = map.regs.iter().find(|r| r.offset == off);
                let at = format!("{what}: {off:#x} {:?}", row.map(RegDef::name));
                let before: Vec<u32> = image(&mut pe);
                let v = rng.next_u64() as u32;
                pe.mmio_write(off, v);
                let after: Vec<u32> = image(&mut pe);
                match row {
                    Some(r) if strobes.contains(&r.offset) => {
                        assert_eq!(pe.mmio_read(off), 0, "{at}");
                    }
                    Some(r) if r.access == Access::ReadWrite => {
                        let mut want = before;
                        want[(off / 4) as usize] = v;
                        assert_eq!(after, want, "{at}");
                    }
                    Some(_) => {
                        assert_eq!(after, before, "{at}");
                        held += usize::from(after[(off / 4) as usize] != 0);
                    }
                    None => {
                        assert_eq!(after, before, "{at}");
                        assert_eq!(pe.mmio_read(off), 0, "{at}");
                    }
                }
            }
            // STATUS, VERSION, RESULT_BYTES and TUPLES_IN at least held
            // a value to keep.
            assert!(held >= 4, "{what}: {held} read-only rows held a value");
        }
    }
}
