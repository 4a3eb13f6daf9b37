//! The control register file (architectural template component (a)).
//!
//! The register map is *generated* from the PE configuration — the number
//! of filtering stages determines how many `FILTER_*` register groups
//! exist — and is the contract shared between the hardware model
//! (`RegState`) and the generated software interface (`ndp-swgen`
//! renders the same [`RegisterMap`] into the header-only C library of
//! the paper's Fig. 6).

use ndp_ir::PeConfig;

/// Register access class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Read/write from the CPU.
    ReadWrite,
    /// Read-only status/result register.
    ReadOnly,
}

/// One 32-bit control register.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegDef {
    /// Macro-style name (`FILTER_OP_0`).
    pub name: String,
    /// Byte offset within the PE's register window.
    pub offset: u32,
    pub(crate) access: Access,
    /// One-line description rendered into the generated header.
    pub doc: String,
}

/// The generated register map of one PE.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegisterMap {
    pub regs: Vec<RegDef>,
    /// Number of filtering stages the map was generated for.
    pub stages: u32,
    /// Number of trailing performance-counter registers (0 for the
    /// baseline maps of \[1\], which have no observability bank).
    pub(crate) perf_regs: usize,
}

/// Fixed register offsets (stage-independent part of the map).
pub mod offsets {
    /// Write 1 to start processing the configured block.
    pub const START: u32 = 0x00;
    /// Bit 0: BUSY; bit 1: DONE since last START.
    pub(crate) const STATUS: u32 = 0x04;
    pub const SRC_ADDR_LO: u32 = 0x08;
    pub const SRC_ADDR_HI: u32 = 0x0C;
    /// Bytes to load; flexible units honour any value up to the chunk
    /// size, the fixed units of \[1\] ignore it and always move 32 KiB.
    pub const SRC_LEN: u32 = 0x10;
    pub const DST_ADDR_LO: u32 = 0x14;
    pub const DST_ADDR_HI: u32 = 0x18;
    pub const DST_CAPACITY: u32 = 0x1C;
    /// Bytes of result actually produced (read-only).
    pub const RESULT_BYTES: u32 = 0x20;
    pub const TUPLES_IN: u32 = 0x24;
    pub const TUPLES_OUT: u32 = 0x28;
    pub(crate) const VERSION: u32 = 0x2C;
    /// First per-stage group; each group is [`STAGE_STRIDE`] bytes.
    pub const STAGE_BASE: u32 = 0x30;
    pub const STAGE_STRIDE: u32 = 0x10;
    /// Within a stage group: lane selector.
    pub const STAGE_FIELD: u32 = 0x0;
    /// Within a stage group: operator code.
    pub const STAGE_OP: u32 = 0x4;
    /// Within a stage group: reference value, low half.
    pub const STAGE_VAL_LO: u32 = 0x8;
    /// Within a stage group: reference value, high half.
    pub const STAGE_VAL_HI: u32 = 0xC;
}

/// Aggregation register offsets *relative to* `FILTER_COUNTER`
/// (present only when the configuration requests aggregates).
pub mod agg_offsets {
    /// Lane whose values feed the Aggregation Unit.
    pub const AGG_FIELD: u32 = 0x4;
    /// Reduction select (0 = disabled; see `ndp_ir::AggOp::code`).
    pub const AGG_OP: u32 = 0x8;
    /// Accumulator, low half (read-only).
    pub const AGG_RESULT_LO: u32 = 0xC;
    /// Accumulator, high half (read-only).
    pub const AGG_RESULT_HI: u32 = 0x10;
}

/// Performance-counter register offsets *relative to* `FILTER_COUNTER`.
/// The bank sits after the aggregation window (which is reserved even on
/// PEs without an Aggregation Unit), so its placement depends only on the
/// stage count. All counters are read-only, cumulative across blocks,
/// and cleared together by writing 1 to `CNT_CTRL`. Hardware counters
/// are 32 bit and wrap; the simulator tracks 64 bit internally and
/// exposes the low word, which is what a wrapping counter would show.
pub mod perf_offsets {
    /// Write 1 to clear every performance counter. Reads as 0.
    pub const CNT_CTRL: u32 = 0x14;
    /// Tuples parsed from the input stream since the last clear.
    pub const CNT_TUPLES_IN: u32 = 0x18;
    /// Tuples that passed the final filtering stage since the last clear.
    pub const CNT_TUPLES_OUT: u32 = 0x1C;
    /// Cycles the Load Unit had a beat ready but the input buffer was full.
    pub const CNT_IN_STALL: u32 = 0x20;
    /// Cycles a transformed tuple waited for room in the output buffer.
    pub const CNT_OUT_STALL: u32 = 0x24;
    /// Cycles in which at least one pipeline unit made progress.
    pub const CNT_ACTIVE: u32 = 0x28;
    /// Cycles in which no unit made progress (AXI latency, drain bubbles).
    pub const CNT_IDLE: u32 = 0x2C;
    /// 64-bit beats fetched by the Load Unit.
    pub const CNT_LOAD_BEATS: u32 = 0x30;
    /// 64-bit beats written by the Store Unit.
    pub const CNT_STORE_BEATS: u32 = 0x34;
    /// First per-stage drop counter; one 32-bit word per filtering stage.
    pub const CNT_STAGE_DROP_BASE: u32 = 0x38;
}

/// Value reported by the `VERSION` register of this template generation
/// (minor bump 1 → 2: the performance-counter bank joined the contract).
pub(crate) const TEMPLATE_VERSION: u32 = 0x0002_0002;

impl RegisterMap {
    /// Generate the register map for `cfg`.
    pub fn for_config(cfg: &PeConfig) -> Self {
        let mut map = Self::for_stages(cfg.stages);
        if !cfg.aggregates.is_empty() {
            let fc = map.filter_counter_offset();
            map.regs.push(RegDef {
                name: "AGG_FIELD".into(),
                offset: fc + agg_offsets::AGG_FIELD,
                access: Access::ReadWrite,
                doc: "Aggregation Unit: lane select".into(),
            });
            map.regs.push(RegDef {
                name: "AGG_OP".into(),
                offset: fc + agg_offsets::AGG_OP,
                access: Access::ReadWrite,
                doc: "Aggregation Unit: reduction select (0 = off)".into(),
            });
            map.regs.push(RegDef {
                name: "AGG_RESULT_LO".into(),
                offset: fc + agg_offsets::AGG_RESULT_LO,
                access: Access::ReadOnly,
                doc: "Aggregation accumulator, low 32 bit".into(),
            });
            map.regs.push(RegDef {
                name: "AGG_RESULT_HI".into(),
                offset: fc + agg_offsets::AGG_RESULT_HI,
                access: Access::ReadOnly,
                doc: "Aggregation accumulator, high 32 bit".into(),
            });
        }
        map.push_perf_bank();
        map
    }

    /// Append the performance-counter bank (generated PEs only; the
    /// hand-crafted PEs of \[1\] keep the bare [`Self::for_stages`] map).
    fn push_perf_bank(&mut self) {
        use perf_offsets::*;
        let fc = self.filter_counter_offset();
        let before = self.regs.len();
        self.regs.push(RegDef {
            name: "CNT_CTRL".into(),
            offset: fc + CNT_CTRL,
            access: Access::ReadWrite,
            doc: "Write 1 to clear all performance counters".into(),
        });
        let counters: [(&str, u32, &str); 8] = [
            ("CNT_TUPLES_IN", CNT_TUPLES_IN, "Perf: tuples parsed since last clear"),
            ("CNT_TUPLES_OUT", CNT_TUPLES_OUT, "Perf: tuples that passed all stages"),
            ("CNT_IN_STALL", CNT_IN_STALL, "Perf: cycles the Load Unit stalled on a full buffer"),
            ("CNT_OUT_STALL", CNT_OUT_STALL, "Perf: cycles a tuple waited on the output buffer"),
            ("CNT_ACTIVE", CNT_ACTIVE, "Perf: cycles with pipeline progress"),
            ("CNT_IDLE", CNT_IDLE, "Perf: cycles without pipeline progress"),
            ("CNT_LOAD_BEATS", CNT_LOAD_BEATS, "Perf: 64-bit beats loaded from DRAM"),
            ("CNT_STORE_BEATS", CNT_STORE_BEATS, "Perf: 64-bit beats stored to DRAM"),
        ];
        for (name, off, doc) in counters {
            self.regs.push(RegDef {
                name: name.into(),
                offset: fc + off,
                access: Access::ReadOnly,
                doc: doc.into(),
            });
        }
        for s in 0..self.stages {
            self.regs.push(RegDef {
                name: format!("CNT_STAGE_DROP_{s}"),
                offset: fc + CNT_STAGE_DROP_BASE + 4 * s,
                access: Access::ReadOnly,
                doc: format!("Perf: tuples dropped by filtering stage {s}"),
            });
        }
        self.perf_regs = self.regs.len() - before;
    }

    /// Generate a map for an explicit stage count.
    pub(crate) fn for_stages(stages: u32) -> Self {
        use offsets::*;
        let mut regs = vec![
            RegDef {
                name: "START".into(),
                offset: START,
                access: Access::ReadWrite,
                doc: "Write 1 to start processing the configured block".into(),
            },
            RegDef {
                name: "STATUS".into(),
                offset: STATUS,
                access: Access::ReadOnly,
                doc: "Bit 0: BUSY, bit 1: DONE".into(),
            },
            RegDef {
                name: "SRC_ADDR_LO".into(),
                offset: SRC_ADDR_LO,
                access: Access::ReadWrite,
                doc: "Source address in PS-DRAM, low 32 bit".into(),
            },
            RegDef {
                name: "SRC_ADDR_HI".into(),
                offset: SRC_ADDR_HI,
                access: Access::ReadWrite,
                doc: "Source address in PS-DRAM, high 32 bit".into(),
            },
            RegDef {
                name: "SRC_LEN".into(),
                offset: SRC_LEN,
                access: Access::ReadWrite,
                doc: "Bytes to load (partial blocks supported by this work)".into(),
            },
            RegDef {
                name: "DST_ADDR_LO".into(),
                offset: DST_ADDR_LO,
                access: Access::ReadWrite,
                doc: "Destination address in PS-DRAM, low 32 bit".into(),
            },
            RegDef {
                name: "DST_ADDR_HI".into(),
                offset: DST_ADDR_HI,
                access: Access::ReadWrite,
                doc: "Destination address in PS-DRAM, high 32 bit".into(),
            },
            RegDef {
                name: "DST_CAPACITY".into(),
                offset: DST_CAPACITY,
                access: Access::ReadWrite,
                doc: "Result buffer capacity in bytes".into(),
            },
            RegDef {
                name: "RESULT_BYTES".into(),
                offset: RESULT_BYTES,
                access: Access::ReadOnly,
                doc: "Bytes of result written back".into(),
            },
            RegDef {
                name: "TUPLES_IN".into(),
                offset: TUPLES_IN,
                access: Access::ReadOnly,
                doc: "Tuples parsed from the input stream".into(),
            },
            RegDef {
                name: "TUPLES_OUT".into(),
                offset: TUPLES_OUT,
                access: Access::ReadOnly,
                doc: "Tuples that passed all filter stages".into(),
            },
            RegDef {
                name: "VERSION".into(),
                offset: VERSION,
                access: Access::ReadOnly,
                doc: "Template generation version".into(),
            },
        ];
        for s in 0..stages {
            let base = STAGE_BASE + s * STAGE_STRIDE;
            regs.push(RegDef {
                name: format!("FILTER_FIELD_{s}"),
                offset: base + STAGE_FIELD,
                access: Access::ReadWrite,
                doc: format!("Stage {s}: comparator lane select"),
            });
            regs.push(RegDef {
                name: format!("FILTER_OP_{s}"),
                offset: base + STAGE_OP,
                access: Access::ReadWrite,
                doc: format!("Stage {s}: operator code (0 = nop)"),
            });
            regs.push(RegDef {
                name: format!("FILTER_VAL_LO_{s}"),
                offset: base + STAGE_VAL_LO,
                access: Access::ReadWrite,
                doc: format!("Stage {s}: reference value, low 32 bit"),
            });
            regs.push(RegDef {
                name: format!("FILTER_VAL_HI_{s}"),
                offset: base + STAGE_VAL_HI,
                access: Access::ReadWrite,
                doc: format!("Stage {s}: reference value, high 32 bit"),
            });
        }
        regs.push(RegDef {
            name: "FILTER_COUNTER".into(),
            offset: STAGE_BASE + stages * STAGE_STRIDE,
            access: Access::ReadOnly,
            doc: "Tuples that passed the final filtering stage".into(),
        });
        RegisterMap { regs, stages, perf_regs: 0 }
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
        offsets::STAGE_BASE + self.stages * offsets::STAGE_STRIDE
    }

    /// Look up a register by name.
    #[cfg(test)]
    pub(crate) fn by_name(&self, name: &str) -> Option<&RegDef> {
        self.regs.iter().find(|r| r.name == name)
    }
}

/// Memory-mapped I/O interface of a PE as seen from the ARM core.
pub trait Mmio {
    /// Read the 32-bit register at byte offset `offset`.
    fn mmio_read(&mut self, offset: u32) -> u32;

    /// Write the 32-bit register at byte offset `offset`.
    fn mmio_write(&mut self, offset: u32, value: u32);
}

/// Cumulative hardware performance counters, cleared together through
/// `CNT_CTRL`. Tracked as `u64` so the simulator never loses precision;
/// the register interface exposes the low 32 bits (wrap semantics).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PerfCounters {
    pub tuples_in: u64,
    pub tuples_out: u64,
    /// Cycles the Load Unit stalled on a full input buffer.
    pub in_stall: u64,
    /// Cycles a transformed tuple stalled on a full output buffer.
    pub out_stall: u64,
    /// Cycles with pipeline progress in at least one unit.
    pub active: u64,
    /// Cycles without any pipeline progress.
    pub idle: u64,
    /// 64-bit beats loaded from DRAM.
    pub load_beats: u64,
    /// 64-bit beats stored to DRAM.
    pub store_beats: u64,
    /// Tuples dropped per filtering stage.
    pub stage_drops: Vec<u64>,
}

impl PerfCounters {
    /// Zeroed counters for a PE with `stages` filtering stages.
    pub(crate) fn new(stages: u32) -> Self {
        Self { stage_drops: vec![0; stages as usize], ..Self::default() }
    }

    /// Clear every counter (the `CNT_CTRL` write-1 action).
    pub(crate) fn reset(&mut self) {
        let stages = self.stage_drops.len();
        *self = Self { stage_drops: vec![0; stages], ..Self::default() };
    }

    /// Tuples dropped across all stages.
    pub fn dropped_total(&self) -> u64 {
        self.stage_drops.iter().sum()
    }
}

/// Software-visible register state shared by the generated and the
/// baseline PE models.
#[derive(Debug, Clone)]
pub(crate) struct RegState {
    pub(crate) start_pending: bool,
    pub(crate) busy: bool,
    pub(crate) done: bool,
    pub(crate) src_addr: u64,
    pub(crate) src_len: u32,
    pub(crate) dst_addr: u64,
    pub(crate) dst_capacity: u32,
    pub result_bytes: u32,
    pub tuples_in: u32,
    pub tuples_out: u32,
    /// Per-stage (field, op, value) configuration.
    pub(crate) filters: Vec<(u32, u32, u64)>,
    pub(crate) filter_counter: u32,
    /// Aggregation configuration (lane, reduction code) and accumulator.
    pub(crate) agg_field: u32,
    pub(crate) agg_op: u32,
    pub(crate) agg_result: u64,
    /// Whether the aggregation registers exist on this PE.
    pub(crate) has_agg: bool,
    /// Whether the performance-counter bank exists on this PE (generated
    /// template only; the hand-crafted PEs of \[1\] have no counters).
    pub(crate) has_perf: bool,
    /// Cumulative performance counters behind the `CNT_*` registers.
    pub(crate) perf: PerfCounters,
    stages: u32,
}

impl RegState {
    /// Zero-initialized state for `stages` filtering stages. All filter
    /// ops start as `nop` (code 0), matching the hardware reset value.
    pub(crate) fn new(stages: u32) -> Self {
        Self {
            start_pending: false,
            busy: false,
            done: false,
            src_addr: 0,
            src_len: 0,
            dst_addr: 0,
            dst_capacity: 0,
            result_bytes: 0,
            tuples_in: 0,
            tuples_out: 0,
            filters: vec![(0, 0, 0); stages as usize],
            filter_counter: 0,
            agg_field: 0,
            agg_op: 0,
            agg_result: 0,
            has_agg: false,
            has_perf: false,
            perf: PerfCounters::new(stages),
            stages,
        }
    }

    /// Dispatch a read of the performance-counter bank (`None` if the
    /// offset does not belong to it).
    fn perf_read(&self, rel: u32) -> Option<u32> {
        use perf_offsets::*;
        let v = match rel {
            CNT_CTRL => 0,
            CNT_TUPLES_IN => self.perf.tuples_in,
            CNT_TUPLES_OUT => self.perf.tuples_out,
            CNT_IN_STALL => self.perf.in_stall,
            CNT_OUT_STALL => self.perf.out_stall,
            CNT_ACTIVE => self.perf.active,
            CNT_IDLE => self.perf.idle,
            CNT_LOAD_BEATS => self.perf.load_beats,
            CNT_STORE_BEATS => self.perf.store_beats,
            _ => {
                if rel < CNT_STAGE_DROP_BASE || !rel.is_multiple_of(4) {
                    return None;
                }
                let s = ((rel - CNT_STAGE_DROP_BASE) / 4) as usize;
                *self.perf.stage_drops.get(s)?
            }
        };
        Some(v as u32)
    }

    fn stage_reg(&mut self, offset: u32) -> Option<(&mut (u32, u32, u64), u32)> {
        use offsets::*;
        if offset < STAGE_BASE {
            return None;
        }
        let rel = offset - STAGE_BASE;
        let stage = rel / STAGE_STRIDE;
        if stage >= self.stages {
            return None;
        }
        Some((&mut self.filters[stage as usize], rel % STAGE_STRIDE))
    }

    /// MMIO read dispatch (shared by both PE models).
    pub(crate) fn read(&mut self, offset: u32) -> u32 {
        use offsets::*;
        match offset {
            START => 0,
            STATUS => u32::from(self.busy) | (u32::from(self.done) << 1),
            SRC_ADDR_LO => self.src_addr as u32,
            SRC_ADDR_HI => (self.src_addr >> 32) as u32,
            SRC_LEN => self.src_len,
            DST_ADDR_LO => self.dst_addr as u32,
            DST_ADDR_HI => (self.dst_addr >> 32) as u32,
            DST_CAPACITY => self.dst_capacity,
            RESULT_BYTES => self.result_bytes,
            TUPLES_IN => self.tuples_in,
            TUPLES_OUT => self.tuples_out,
            VERSION => TEMPLATE_VERSION,
            _ => {
                let fc = STAGE_BASE + self.stages * STAGE_STRIDE;
                if offset == fc {
                    return self.filter_counter;
                }
                if self.has_agg {
                    match offset.checked_sub(fc) {
                        Some(crate::regs::agg_offsets::AGG_FIELD) => return self.agg_field,
                        Some(crate::regs::agg_offsets::AGG_OP) => return self.agg_op,
                        Some(crate::regs::agg_offsets::AGG_RESULT_LO) => {
                            return self.agg_result as u32
                        }
                        Some(crate::regs::agg_offsets::AGG_RESULT_HI) => {
                            return (self.agg_result >> 32) as u32
                        }
                        _ => {}
                    }
                }
                if self.has_perf {
                    if let Some(v) = offset.checked_sub(fc).and_then(|rel| self.perf_read(rel)) {
                        return v;
                    }
                }
                if let Some((f, field)) = self.stage_reg(offset) {
                    return match field {
                        STAGE_FIELD => f.0,
                        STAGE_OP => f.1,
                        STAGE_VAL_LO => f.2 as u32,
                        STAGE_VAL_HI => (f.2 >> 32) as u32,
                        _ => 0,
                    };
                }
                0
            }
        }
    }

    /// MMIO write dispatch (shared by both PE models).
    pub(crate) fn write(&mut self, offset: u32, value: u32) {
        use offsets::*;
        match offset {
            START => {
                if value & 1 != 0 {
                    self.start_pending = true;
                    self.done = false;
                }
            }
            SRC_ADDR_LO => {
                self.src_addr = (self.src_addr & !0xFFFF_FFFF) | u64::from(value);
            }
            SRC_ADDR_HI => {
                self.src_addr = (self.src_addr & 0xFFFF_FFFF) | (u64::from(value) << 32);
            }
            SRC_LEN => self.src_len = value,
            DST_ADDR_LO => {
                self.dst_addr = (self.dst_addr & !0xFFFF_FFFF) | u64::from(value);
            }
            DST_ADDR_HI => {
                self.dst_addr = (self.dst_addr & 0xFFFF_FFFF) | (u64::from(value) << 32);
            }
            DST_CAPACITY => self.dst_capacity = value,
            _ => {
                let fc = STAGE_BASE + self.stages * STAGE_STRIDE;
                if self.has_agg {
                    match offset.checked_sub(fc) {
                        Some(crate::regs::agg_offsets::AGG_FIELD) => {
                            self.agg_field = value;
                            return;
                        }
                        Some(crate::regs::agg_offsets::AGG_OP) => {
                            self.agg_op = value;
                            return;
                        }
                        _ => {}
                    }
                }
                if self.has_perf
                    && offset.checked_sub(fc) == Some(perf_offsets::CNT_CTRL)
                    && value & 1 != 0
                {
                    self.perf.reset();
                    return;
                }
                if let Some((f, field)) = self.stage_reg(offset) {
                    match field {
                        STAGE_FIELD => f.0 = value,
                        STAGE_OP => f.1 = value,
                        STAGE_VAL_LO => f.2 = (f.2 & !0xFFFF_FFFF) | u64::from(value),
                        STAGE_VAL_HI => f.2 = (f.2 & 0xFFFF_FFFF) | (u64::from(value) << 32),
                        _ => {}
                    }
                }
                // Writes to read-only or unmapped registers are ignored,
                // matching AXI-Lite slaves that OKAY but discard.
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_has_fixed_plus_per_stage_registers() {
        let m1 = RegisterMap::for_stages(1);
        let m3 = RegisterMap::for_stages(3);
        assert_eq!(m1.len(), 12 + 4 + 1);
        assert_eq!(m3.len(), 12 + 12 + 1);
        assert_eq!(m3.by_name("FILTER_VAL_HI_2").unwrap().offset, 0x30 + 2 * 0x10 + 0xC);
    }

    #[test]
    fn filter_counter_sits_after_last_stage_group() {
        let m = RegisterMap::for_stages(2);
        assert_eq!(m.filter_counter_offset(), 0x30 + 2 * 0x10);
        assert_eq!(m.by_name("FILTER_COUNTER").unwrap().offset, m.filter_counter_offset());
    }

    #[test]
    fn offsets_are_unique_and_word_aligned() {
        let m = RegisterMap::for_stages(5);
        let mut seen = std::collections::HashSet::new();
        for r in &m.regs {
            assert_eq!(r.offset % 4, 0, "{} not word aligned", r.name);
            assert!(seen.insert(r.offset), "duplicate offset {:#x}", r.offset);
        }
    }

    #[test]
    fn state_addr_halves_combine() {
        let mut s = RegState::new(1);
        s.write(offsets::SRC_ADDR_LO, 0xDEAD_BEEF);
        s.write(offsets::SRC_ADDR_HI, 0x1);
        assert_eq!(s.src_addr, 0x1_DEAD_BEEF);
        assert_eq!(s.read(offsets::SRC_ADDR_LO), 0xDEAD_BEEF);
        assert_eq!(s.read(offsets::SRC_ADDR_HI), 0x1);
    }

    #[test]
    fn filter_value_halves_combine() {
        let mut s = RegState::new(2);
        let base = offsets::STAGE_BASE + offsets::STAGE_STRIDE; // stage 1
        s.write(base + offsets::STAGE_VAL_LO, 0x3333_2222);
        s.write(base + offsets::STAGE_VAL_HI, 0x0000_1111);
        assert_eq!(s.filters[1].2, 0x0000_1111_3333_2222);
        assert_eq!(s.filters[0].2, 0);
    }

    #[test]
    fn start_sets_pending_and_clears_done() {
        let mut s = RegState::new(1);
        s.done = true;
        s.write(offsets::START, 1);
        assert!(s.start_pending);
        assert!(!s.done);
        // Writing 0 does nothing.
        let mut s2 = RegState::new(1);
        s2.write(offsets::START, 0);
        assert!(!s2.start_pending);
    }

    #[test]
    fn status_encodes_busy_and_done() {
        let mut s = RegState::new(1);
        s.busy = true;
        assert_eq!(s.read(offsets::STATUS), 1);
        s.busy = false;
        s.done = true;
        assert_eq!(s.read(offsets::STATUS), 2);
    }

    #[test]
    fn out_of_range_stage_registers_are_inert() {
        let mut s = RegState::new(1);
        let beyond = offsets::STAGE_BASE + 7 * offsets::STAGE_STRIDE;
        s.write(beyond, 0xFFFF);
        assert_eq!(s.read(beyond), 0);
    }

    #[test]
    fn read_only_registers_ignore_writes() {
        let mut s = RegState::new(1);
        s.tuples_in = 42;
        s.write(offsets::TUPLES_IN, 7);
        assert_eq!(s.read(offsets::TUPLES_IN), 42);
    }

    #[test]
    fn version_register_reports_template_generation() {
        let mut s = RegState::new(1);
        assert_eq!(s.read(offsets::VERSION), TEMPLATE_VERSION);
    }

    #[test]
    fn reset_filters_are_nop() {
        let s = RegState::new(3);
        assert!(s.filters.iter().all(|&(_, op, _)| op == 0));
    }

    fn cfg(src: &str, name: &str) -> PeConfig {
        ndp_ir::elaborate(&ndp_spec::parse(src).unwrap(), name).unwrap()
    }

    const TWO_STAGE: &str = "
        /* @autogen define parser P with input = T, output = T, stages = 2 */
        typedef struct { uint32_t v; uint32_t w; } T;
    ";

    #[test]
    fn generated_map_appends_perf_bank_after_agg_window() {
        let m = RegisterMap::for_config(&cfg(TWO_STAGE, "P"));
        // 12 fixed + 2 * 4 stage regs + FILTER_COUNTER + (CNT_CTRL + 8
        // counters + 2 stage-drop counters).
        assert_eq!(m.perf_regs, 11);
        assert_eq!(m.len(), 12 + 8 + 1 + 11);
        let fc = m.filter_counter_offset();
        assert_eq!(m.by_name("CNT_CTRL").unwrap().offset, fc + perf_offsets::CNT_CTRL);
        assert_eq!(m.by_name("CNT_ACTIVE").unwrap().offset, fc + perf_offsets::CNT_ACTIVE);
        assert_eq!(
            m.by_name("CNT_STAGE_DROP_1").unwrap().offset,
            fc + perf_offsets::CNT_STAGE_DROP_BASE + 4
        );
        assert!(m.by_name("CNT_CTRL").unwrap().access == Access::ReadWrite);
        assert!(m.by_name("CNT_TUPLES_IN").unwrap().access == Access::ReadOnly);
    }

    #[test]
    fn baseline_map_has_no_perf_bank() {
        let m = RegisterMap::for_stages(1);
        assert_eq!(m.perf_regs, 0);
        assert!(m.by_name("CNT_CTRL").is_none());
    }

    #[test]
    fn generated_map_offsets_are_unique_and_word_aligned() {
        // Full map including aggregation *and* perf registers.
        let src = "
            /* @autogen define parser A with input = T, output = T, stages = 3,
               aggregate = { sum } */
            typedef struct { uint64_t k; uint32_t v; } T;
        ";
        let m = RegisterMap::for_config(&cfg(src, "A"));
        let mut seen = std::collections::HashSet::new();
        for r in &m.regs {
            assert_eq!(r.offset % 4, 0, "{} not word aligned", r.name);
            assert!(seen.insert(r.offset), "duplicate offset {:#x} ({})", r.offset, r.name);
        }
    }

    fn perf_state() -> RegState {
        let mut s = RegState::new(2);
        s.has_perf = true;
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
        let fc = offsets::STAGE_BASE + 2 * offsets::STAGE_STRIDE;
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
        let fc = offsets::STAGE_BASE + 2 * offsets::STAGE_STRIDE;
        assert_eq!(s.read(fc + perf_offsets::CNT_ACTIVE), 5, "wraps like a 32-bit counter");
    }

    #[test]
    fn perf_bank_is_inert_without_has_perf() {
        let mut s = perf_state();
        s.has_perf = false;
        let fc = offsets::STAGE_BASE + 2 * offsets::STAGE_STRIDE;
        assert_eq!(s.read(fc + perf_offsets::CNT_TUPLES_IN), 0);
        s.write(fc + perf_offsets::CNT_CTRL, 1);
        assert_eq!(s.perf.tuples_in, 10, "no perf bank, no clear");
    }
}
