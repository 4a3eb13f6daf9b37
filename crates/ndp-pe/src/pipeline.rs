//! Cycle-level model of the generated PE pipeline.
//!
//! The template's units are *latency-insensitive*: every unit talks to its
//! neighbours through elastic FIFOs with ready/valid semantics, so they can
//! simply be wired up in sequence (paper, Sec. IV-B "Composition"). The
//! simulator mirrors that structure: bounded queues between units, one
//! tick per 100 MHz PL clock cycle, downstream units ticked first so
//! back-pressure propagates exactly like combinational ready signals.
//!
//! What a tuple *holds* reaches the schedule through one fact only: which
//! Filtering Unit drops it. So a block runs as two planes. The **data
//! plane** reads the source once, decides every tuple's *fate* (the first
//! stage that drops it) with the per-stage [`FilterProgram`]s, folds the
//! aggregate and transforms the survivors into one output buffer. The
//! **schedule plane** then ticks the units over integers — byte counts
//! for the word-side buffers, 4-deep rings of fates for the FIFOs — and
//! counts cycles, tuples, drops, beats and stalls as the hardware would;
//! how much of the output buffer reaches memory is what its Store Unit
//! stored. Runs of cycles in which nothing but memory beats can happen
//! are advanced in closed form (the beat-run jump in `schedule`).
//!
//! Steady-state throughput is `min(8 bytes/cycle memory, 1 tuple/cycle
//! compute)` — which is why the paper's multi-stage filters add only
//! marginal latency (each stage is one extra pipeline register) and why a
//! PE at 100 MHz (800 MB/s) is never the bottleneck behind ~200 MB/s of
//! flash.

use crate::membus::MemBus;
use crate::oracle::{AggAccumulator, BlockProcessor, FilterProgram, FilterRule, OpTable};
use crate::regs::{offsets, Mmio, PerfCounters, RegState, RegisterMap};
use crate::PeDevice;
use ndp_ir::PeConfig;

/// Initial AXI read latency in PL cycles before the first beat arrives.
pub const MEM_LATENCY_CYCLES: u64 = 24;
/// Queue capacity (tuples) of the elastic FIFOs between units.
const FIFO_TUPLES: usize = 4;
/// Byte capacity of the word-side staging buffers.
const BYTE_BUF: u64 = 64;

/// Per-block execution statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BlockResult {
    /// PL cycles from START to DONE.
    pub cycles: u64,
    /// Complete tuples parsed.
    pub tuples_in: u32,
    /// Tuples that passed all filtering stages.
    pub tuples_out: u32,
    /// Bytes read from DRAM.
    pub bytes_read: u32,
    /// Bytes written to DRAM (the fixed-block baseline always writes the
    /// full 32 KiB, so this can exceed `result_bytes`).
    pub bytes_written: u32,
    /// Result payload bytes.
    pub result_bytes: u32,
}

/// Analytic estimate of [`BlockResult::cycles`] for a block with the given
/// traffic, validated against the cycle-level model (see tests): the
/// elastic pipeline is limited by the slowest of the three streaming rates
/// plus fill/drain latency.
pub fn estimate_block_cycles(
    bytes_in: u64,
    tuples_in: u64,
    bytes_written: u64,
    stages: u32,
) -> u64 {
    let stream = (bytes_in.div_ceil(8)).max(tuples_in).max(bytes_written.div_ceil(8));
    MEM_LATENCY_CYCLES + stream + u64::from(stages) + 4
}

/// Cycle-level PE simulator (the generated, flexible variant; the
/// fixed-block behaviour of \[1\] is selected by `flexible = false` and is
/// wrapped by [`crate::BaselinePe`]).
pub struct PeSim {
    cfg: PeConfig,
    map: RegisterMap,
    regs: RegState,
    ops: OpTable,
    processor: BlockProcessor,
    flexible: bool,
    scratch: Scratch,
    /// Cumulative statistics across blocks (for debugging/reporting).
    pub total: TotalStats,
}

/// Lifetime statistics of one PE instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TotalStats {
    pub blocks: u64,
    pub cycles: u64,
    pub tuples_in: u64,
    pub tuples_out: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
}

/// Index of the first Filtering Unit that drops a tuple, the stage count
/// for a survivor. As wide as [`PeConfig::stages`]: the parser stops at
/// 64 stages, a hand-built configuration need not.
type Fate = u32;

/// One elastic FIFO of the schedule plane. The tuples in it matter only
/// through where each will be dropped.
#[derive(Clone, Copy, Default)]
struct FateRing {
    fates: [Fate; FIFO_TUPLES],
    head: usize,
    len: usize,
}

impl FateRing {
    fn has_room(&self) -> bool {
        self.len < FIFO_TUPLES
    }

    fn push(&mut self, fate: Fate) {
        self.fates[(self.head + self.len) % FIFO_TUPLES] = fate;
        self.len += 1;
    }

    fn pop(&mut self) -> Option<Fate> {
        if self.len == 0 {
            return None;
        }
        let fate = self.fates[self.head];
        self.head = (self.head + 1) % FIFO_TUPLES;
        self.len -= 1;
        Some(fate)
    }
}

/// Per-block working storage, kept across blocks so a block allocates
/// nothing once the first one has run.
#[derive(Default)]
struct Scratch {
    /// The source region as read.
    input: Vec<u8>,
    /// One entry per whole input tuple.
    fates: Vec<Fate>,
    /// Every survivor, transformed, in input order.
    output: Vec<u8>,
    /// The rule registers, compiled one program per Filtering Unit (a
    /// stage sees only its own rule).
    programs: Vec<FilterProgram>,
    /// `rings[0]` is the parsed-tuple FIFO behind the Tuple Input Buffer,
    /// `rings[s + 1]` the FIFO behind Filtering Unit `s`.
    rings: Vec<FateRing>,
}

/// What the schedule plane needs to know of a block besides its fates.
struct Shape {
    in_tuple: u64,
    out_tuple: u64,
    src_len: u64,
    capacity: u64,
}

/// Schedule plane: tick the units of one block — Store Unit, Tuple Output
/// Buffer, Data Transformation Unit, Filtering Units last first, Tuple
/// Input Buffer, Load Unit — until everything has drained, counting into
/// the `CNT_*` bank as the hardware would (`active + idle` grows by the
/// block's cycles by construction). Tuple `i` of the block is
/// dropped by stage `fates[i]`; `rings` holds one empty ring more than
/// there are stages. `bytes_written` of the result is the Store Unit's
/// payload; padding is the caller's.
fn schedule(
    shape: &Shape,
    fates: &[Fate],
    rings: &mut [FateRing],
    bank: &mut PerfCounters,
) -> BlockResult {
    // Counted in a local for the length of the loop: through the
    // reference every increment is a store (5-10 % of a one-stage tick).
    let mut perf = std::mem::take(bank);
    let Shape { in_tuple, out_tuple, .. } = *shape;
    let stages = rings.len() - 1;
    // The word-side staging buffers must hold at least one whole tuple
    // plus a beat, or wide-tuple pipelines would stall forever waiting
    // for a complete tuple to assemble.
    let in_buf_cap = BYTE_BUF.max(in_tuple + 8);
    let out_buf_cap = BYTE_BUF.max(out_tuple + 8);
    let mut load_remaining = shape.src_len;
    let mut capacity_left = shape.capacity;
    // Bytes in the Tuple Input / Output Buffer.
    let (mut in_len, mut out_len) = (0u64, 0u64);
    // Tuples in `rings`, and in the FIFO behind the transformation unit.
    let (mut queued, mut transformed) = (0usize, 0usize);
    let mut res = BlockResult::default();

    loop {
        // Beat-run jump. With every FIFO empty, the AXI latency over and
        // the next tuple `beats` loads from complete, each of the next
        // `beats` cycles is one full load beat and, while the output
        // buffer still holds a whole word, one full store beat; no other
        // unit can fire. The block's last beat (after which the pipeline
        // flushes) and a store that meets the capacity limit are left to
        // the cycle-by-cycle code below.
        if queued == 0 && transformed == 0 && res.cycles >= MEM_LATENCY_CYCLES && in_len < in_tuple
        {
            let beats = (in_tuple - in_len).div_ceil(8).min(load_remaining.saturating_sub(1) / 8);
            let stores = beats.min(out_len / 8);
            if 8 * stores <= capacity_left {
                res.cycles += beats;
                perf.active += beats;
                perf.load_beats += beats;
                res.bytes_read += (8 * beats) as u32;
                in_len += 8 * beats;
                load_remaining -= 8 * beats;
                perf.store_beats += stores;
                res.result_bytes += (8 * stores) as u32;
                out_len -= 8 * stores;
                capacity_left -= 8 * stores;
            }
        }

        res.cycles += 1;
        let mut did_work = false;

        // --- Store Unit: drain up to one 64-bit beat per cycle.
        let flushing = load_remaining == 0 && in_len < in_tuple && queued == 0 && transformed == 0;
        if out_len >= 8 || (flushing && out_len > 0) {
            let n = out_len.min(8).min(capacity_left);
            if n > 0 {
                out_len -= n;
                capacity_left -= n;
                res.result_bytes += n as u32;
                perf.store_beats += 1;
            } else {
                // Result buffer full: drop the remainder (an AXI
                // master would raise an IRQ; firmware sizes buffers
                // so this only happens under fault injection).
                out_len = 0;
            }
            did_work = true;
        }

        // --- Tuple Output Buffer: serialize one tuple per cycle.
        if out_len + out_tuple <= out_buf_cap {
            if transformed > 0 {
                transformed -= 1;
                out_len += out_tuple;
                did_work = true;
            }
        } else if transformed > 0 {
            perf.out_stall += 1;
        }

        // --- Data Transformation Unit: one tuple per cycle, from the
        // last Filtering Unit's FIFO.
        if transformed < FIFO_TUPLES && rings[stages].pop().is_some() {
            queued -= 1;
            transformed += 1;
            did_work = true;
        }

        // --- Filtering Units, last stage first (back-pressure).
        for s in (0..stages).rev() {
            if !rings[s + 1].has_room() {
                continue;
            }
            if let Some(fate) = rings[s].pop() {
                did_work = true;
                if fate as usize > s {
                    if s == stages - 1 {
                        res.tuples_out += 1;
                    }
                    rings[s + 1].push(fate);
                } else {
                    // Failing tuples are discarded (not enqueued).
                    perf.stage_drops[s] += 1;
                    queued -= 1;
                }
            }
        }

        // --- Tuple Input Buffer: assemble one tuple per cycle.
        if in_len >= in_tuple && rings[0].has_room() {
            rings[0].push(fates[res.tuples_in as usize]);
            res.tuples_in += 1;
            queued += 1;
            in_len -= in_tuple;
            did_work = true;
        }

        // --- Load Unit: one 64-bit beat per cycle after the initial
        // AXI latency.
        if res.cycles > MEM_LATENCY_CYCLES && load_remaining > 0 {
            if in_len + 8 <= in_buf_cap {
                let n = load_remaining.min(8);
                in_len += n;
                load_remaining -= n;
                res.bytes_read += n as u32;
                perf.load_beats += 1;
                did_work = true;
            } else {
                perf.in_stall += 1;
            }
        }

        perf.active += u64::from(did_work);
        perf.idle += u64::from(!did_work);

        // --- Termination: everything drained.
        if load_remaining == 0
            && in_len < in_tuple
            && queued == 0
            && transformed == 0
            && out_len == 0
        {
            res.bytes_written = res.result_bytes;
            perf.tuples_in += u64::from(res.tuples_in);
            perf.tuples_out += u64::from(res.tuples_out);
            *bank = perf;
            return res;
        }
    }
}

impl PeSim {
    /// Build a generated (flexible) PE from its configuration.
    pub fn new(cfg: PeConfig) -> Self {
        Self::with_flexibility(cfg, true)
    }

    /// Build with explicit flexibility (false = fixed 32 KiB blocks, the
    /// behaviour of the hand-crafted units of \[1\]).
    pub fn with_flexibility(cfg: PeConfig, flexible: bool) -> Self {
        let map = if flexible { RegisterMap::for_config(&cfg) } else { RegisterMap::for_stages(1) };
        let mut regs = RegState::new(cfg.stages);
        regs.has_agg = !cfg.aggregates.is_empty();
        // Only the generated template carries the observability bank; the
        // hand-crafted PEs of [1] expose no performance counters.
        regs.has_perf = flexible;
        let ops = OpTable::from_config(&cfg);
        let processor = BlockProcessor::new(&cfg);
        Self {
            cfg,
            map,
            regs,
            ops,
            processor,
            flexible,
            scratch: Scratch::default(),
            total: TotalStats::default(),
        }
    }

    /// The PE's configuration.
    pub fn config(&self) -> &PeConfig {
        &self.cfg
    }

    /// The generated register map.
    pub fn register_map(&self) -> &RegisterMap {
        &self.map
    }

    /// Bind a custom comparator operator by name (must be declared in the
    /// configuration's operator set). Returns false if unknown.
    pub fn bind_custom_op(
        &mut self,
        name: &str,
        f: impl Fn(ndp_spec::PrimTy, u64, u64) -> bool + Send + Sync + 'static,
    ) -> bool {
        self.ops.bind_custom(&self.cfg, name, f)
    }

    /// Data plane: read `src_len` source bytes once, decide the fate of
    /// every whole tuple, transform the survivors into the output buffer
    /// and fold them into the configured aggregate, which is returned.
    fn decide_fates(&mut self, mem: &mut dyn MemBus, src_len: usize) -> Option<AggAccumulator> {
        // Aggregation Unit configuration: active only if the op is valid,
        // the hardware supports it, and the lane exists.
        let mut agg = if self.regs.has_agg {
            ndp_ir::AggOp::from_code(self.regs.agg_op)
                .filter(|op| self.cfg.supports_aggregate(*op))
                .and_then(|op| AggAccumulator::new(&self.processor, op, self.regs.agg_field))
        } else {
            None
        };
        let s = &mut self.scratch;
        s.programs.clear();
        s.programs.extend(self.regs.filters.iter().map(|&(lane, op_code, value)| {
            self.processor.compile(&[FilterRule { lane, op_code, value }], &self.ops)
        }));
        s.input.resize(src_len, 0);
        if src_len > 0 {
            mem.read_bytes(self.regs.src_addr, &mut s.input);
        }
        s.fates.clear();
        s.output.clear();
        let stages = s.programs.len();
        for tuple in s.input.chunks_exact(self.processor.in_tuple_bytes()) {
            let fate = s.programs.iter().position(|p| !p.passes(tuple)).unwrap_or(stages);
            if fate == stages {
                // The Aggregation Unit taps the last Filtering Unit.
                if let (Some(acc), true) = (agg.as_mut(), stages > 0) {
                    if let Some(v) = self.processor.lane_value(tuple, acc.lane) {
                        acc.update(v);
                    }
                }
                self.processor.transform_into(tuple, &mut s.output);
            }
            s.fates.push(fate as Fate);
        }
        agg
    }

    /// Run the configured block against `mem`.
    fn run_block(&mut self, mem: &mut dyn MemBus) -> BlockResult {
        // Effective transfer length: flexible units honour SRC_LEN,
        // fixed units always move whole chunks.
        let src_len = if self.flexible {
            self.regs.src_len.min(self.cfg.chunk_bytes)
        } else {
            self.cfg.chunk_bytes
        };
        let agg = self.decide_fates(mem, src_len as usize);

        let s = &mut self.scratch;
        s.rings.clear();
        s.rings.resize(s.programs.len() + 1, FateRing::default());
        let shape = Shape {
            in_tuple: self.processor.in_tuple_bytes() as u64,
            out_tuple: self.processor.out_tuple_bytes() as u64,
            src_len: u64::from(src_len),
            capacity: u64::from(self.regs.dst_capacity),
        };
        let perf = &mut self.regs.perf;
        let mut res = schedule(&shape, &s.fates, &mut s.rings, perf);

        // What reaches memory is what the Store Unit's beats carried.
        s.output.truncate(res.result_bytes as usize);
        // Fixed-block baseline: the Store Unit always writes back a whole
        // block; pad the remainder with zeros (pure memory traffic, one
        // beat per cycle).
        if !self.flexible {
            let pad = self
                .cfg
                .chunk_bytes
                .saturating_sub(res.result_bytes)
                .min(self.regs.dst_capacity - res.result_bytes);
            s.output.resize((res.result_bytes + pad) as usize, 0);
            res.bytes_written += pad;
            let beats = u64::from(pad.div_ceil(8));
            res.cycles += beats;
            perf.store_beats += beats;
            perf.active += beats;
        }
        if !s.output.is_empty() {
            mem.write_bytes(self.regs.dst_addr, &s.output);
        }
        if let Some(acc) = agg {
            self.regs.agg_result = acc.value();
        }
        res
    }

    /// Snapshot of the cumulative hardware performance counters (the
    /// `CNT_*` registers, without the register-interface truncation).
    pub fn perf(&self) -> &PerfCounters {
        &self.regs.perf
    }

    /// Clear the performance counters (the `CNT_CTRL` write-1 action).
    pub fn reset_perf(&mut self) {
        self.regs.perf.reset();
    }
}

impl Mmio for PeSim {
    fn mmio_read(&mut self, offset: u32) -> u32 {
        self.regs.read(offset)
    }

    fn mmio_write(&mut self, offset: u32, value: u32) {
        // The fixed-block baseline ignores transfer-length configuration.
        if !self.flexible && offset == offsets::SRC_LEN {
            return;
        }
        self.regs.write(offset, value);
    }
}

impl PeDevice for PeSim {
    fn execute(&mut self, mem: &mut dyn MemBus) -> BlockResult {
        if !self.regs.start_pending {
            return BlockResult::default();
        }
        self.regs.start_pending = false;
        self.regs.busy = true;
        let res = self.run_block(mem);
        self.regs.busy = false;
        self.regs.done = true;
        self.regs.result_bytes = res.result_bytes;
        self.regs.tuples_in = res.tuples_in;
        self.regs.tuples_out = res.tuples_out;
        self.regs.filter_counter = res.tuples_out;
        self.total.blocks += 1;
        self.total.cycles += res.cycles;
        self.total.tuples_in += u64::from(res.tuples_in);
        self.total.tuples_out += u64::from(res.tuples_out);
        self.total.bytes_read += u64::from(res.bytes_read);
        self.total.bytes_written += u64::from(res.bytes_written);
        res
    }

    fn stages(&self) -> u32 {
        self.cfg.stages
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membus::VecMem;
    use ndp_ir::elaborate;
    use ndp_spec::parse;
    use ndp_workload::SplitMix64;
    use std::collections::VecDeque;

    const POINTS: &str = "
        /* @autogen define parser P with input = Point3D, output = Point2D,
           mapping = { output.x = input.y, output.y = input.z } */
        typedef struct { uint32_t x, y, z; } Point3D;
        typedef struct { uint32_t x, y; } Point2D;
    ";

    fn make_pe(src: &str, name: &str) -> PeSim {
        PeSim::new(elaborate(&parse(src).unwrap(), name).unwrap())
    }

    fn write_points(mem: &mut VecMem, base: u64, pts: &[(u32, u32, u32)]) -> u32 {
        let mut bytes = Vec::new();
        for &(x, y, z) in pts {
            bytes.extend_from_slice(&x.to_le_bytes());
            bytes.extend_from_slice(&y.to_le_bytes());
            bytes.extend_from_slice(&z.to_le_bytes());
        }
        mem.write_bytes(base, &bytes);
        bytes.len() as u32
    }

    /// Configure src/dst and the first `rules.len()` stages, and raise START.
    fn configure(
        pe: &mut PeSim,
        src: u64,
        len: u32,
        dst: u64,
        cap: u32,
        rules: &[(u32, u32, u64)],
    ) {
        use offsets::*;
        pe.mmio_write(SRC_ADDR_LO, src as u32);
        pe.mmio_write(SRC_ADDR_HI, (src >> 32) as u32);
        pe.mmio_write(SRC_LEN, len);
        pe.mmio_write(DST_ADDR_LO, dst as u32);
        pe.mmio_write(DST_ADDR_HI, (dst >> 32) as u32);
        pe.mmio_write(DST_CAPACITY, cap);
        for (i, &(lane, op, val)) in rules.iter().enumerate() {
            let base = STAGE_BASE + i as u32 * STAGE_STRIDE;
            pe.mmio_write(base + STAGE_FIELD, lane);
            pe.mmio_write(base + STAGE_OP, op);
            pe.mmio_write(base + STAGE_VAL_LO, val as u32);
            pe.mmio_write(base + STAGE_VAL_HI, (val >> 32) as u32);
        }
        pe.mmio_write(START, 1);
    }

    /// Configure src/dst/filters and run one block.
    fn run(
        pe: &mut PeSim,
        mem: &mut VecMem,
        src: u64,
        len: u32,
        dst: u64,
        cap: u32,
        rules: &[(u32, u32, u64)],
    ) -> BlockResult {
        configure(pe, src, len, dst, cap, rules);
        pe.execute(mem)
    }

    #[test]
    fn end_to_end_filter_and_project() {
        let mut pe = make_pe(POINTS, "P");
        let mut mem = VecMem::new(1 << 16);
        let ge = pe.config().op_code("ge").unwrap();
        let len = write_points(&mut mem, 0, &[(1, 10, 100), (5, 50, 500), (9, 90, 900)]);
        let res = run(&mut pe, &mut mem, 0, len, 0x8000, 4096, &[(0, ge, 5)]);
        assert_eq!(res.tuples_in, 3);
        assert_eq!(res.tuples_out, 2);
        assert_eq!(res.result_bytes, 16);
        let mut out = vec![0u8; 16];
        mem.read_bytes(0x8000, &mut out);
        assert_eq!(&out[0..4], &50u32.to_le_bytes());
        assert_eq!(&out[4..8], &500u32.to_le_bytes());
        assert_eq!(&out[8..12], &90u32.to_le_bytes());
        assert_eq!(&out[12..16], &900u32.to_le_bytes());
    }

    #[test]
    fn status_registers_reflect_run() {
        let mut pe = make_pe(POINTS, "P");
        let mut mem = VecMem::new(1 << 16);
        let len = write_points(&mut mem, 0, &[(1, 2, 3)]);
        assert_eq!(pe.mmio_read(offsets::STATUS), 0);
        let _ = run(&mut pe, &mut mem, 0, len, 0x8000, 4096, &[]);
        assert_eq!(pe.mmio_read(offsets::STATUS), 2, "DONE after run");
        assert_eq!(pe.mmio_read(offsets::TUPLES_IN), 1);
        assert_eq!(pe.mmio_read(offsets::TUPLES_OUT), 1);
        assert_eq!(pe.mmio_read(offsets::RESULT_BYTES), 8);
        assert_eq!(pe.mmio_read(pe.register_map().filter_counter_offset()), 1);
    }

    #[test]
    fn execute_without_start_is_a_no_op() {
        let mut pe = make_pe(POINTS, "P");
        let mut mem = VecMem::new(1024);
        let res = pe.execute(&mut mem);
        assert_eq!(res, BlockResult::default());
    }

    #[test]
    fn cycle_model_matches_oracle_semantics() {
        // Cross-validate the tick-based pipeline against the byte-level
        // oracle on a randomized block.
        let mut rng = ndp_workload::SplitMix64::new(0xC0FFEE);
        let cfg = elaborate(&parse(POINTS).unwrap(), "P").unwrap();
        let mut pe = PeSim::new(cfg.clone());
        let bp = crate::oracle::BlockProcessor::new(&cfg);
        let ops = crate::oracle::OpTable::from_config(&cfg);

        let pts: Vec<(u32, u32, u32)> = (0..257)
            .map(|_| (rng.gen_u32(100), rng.next_u64() as u32, rng.next_u64() as u32))
            .collect();
        let mut mem = VecMem::new(1 << 16);
        let len = write_points(&mut mem, 0, &pts);
        let lt = cfg.op_code("lt").unwrap();
        let res = run(&mut pe, &mut mem, 0, len, 0x8000, 8192, &[(0, lt, 50)]);

        let mut input = vec![0u8; len as usize];
        mem.read_bytes(0, &mut input);
        let mut expected = Vec::new();
        let stats = bp.process_block(
            &input,
            &[FilterRule { lane: 0, op_code: lt, value: 50 }],
            &ops,
            &mut expected,
        );
        assert_eq!(res.tuples_in, stats.tuples_in);
        assert_eq!(res.tuples_out, stats.tuples_out);
        assert_eq!(res.result_bytes, stats.bytes_out);
        let mut got = vec![0u8; expected.len()];
        mem.read_bytes(0x8000, &mut got);
        assert_eq!(got, expected);
    }

    #[test]
    fn throughput_is_one_tuple_per_cycle_when_compute_bound() {
        // 12-byte tuples: loading needs 1.5 cycles/tuple (12/8), so the
        // pipeline is load-bound at 1.5 cycles per tuple; with an
        // all-pass filter the output stream (8 B/tuple) is no bottleneck.
        let mut pe = make_pe(POINTS, "P");
        let mut mem = VecMem::new(1 << 20);
        let n = 2000u32;
        let pts: Vec<(u32, u32, u32)> = (0..n).map(|i| (i, i, i)).collect();
        let len = write_points(&mut mem, 0, &pts);
        let res = run(&mut pe, &mut mem, 0, len, 0x40000, 1 << 18, &[]);
        let cycles_per_tuple = res.cycles as f64 / f64::from(n);
        assert!(
            (1.4..1.7).contains(&cycles_per_tuple),
            "expected ~1.5 cycles/tuple, got {cycles_per_tuple}"
        );
    }

    #[test]
    fn multi_stage_pipeline_conjoins_predicates() {
        let src = "
            /* @autogen define parser R with input = T, output = T, stages = 2 */
            typedef struct { uint32_t v; uint32_t w; } T;
        ";
        let mut pe = make_pe(src, "R");
        let mut mem = VecMem::new(1 << 16);
        let mut bytes = Vec::new();
        for (v, w) in [(5u32, 1u32), (15, 1), (25, 1), (15, 9)] {
            bytes.extend_from_slice(&v.to_le_bytes());
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        mem.write_bytes(0, &bytes);
        let ge = pe.config().op_code("ge").unwrap();
        let lt = pe.config().op_code("lt").unwrap();
        // RANGE_SCAN: 10 <= v < 20, plus w arbitrary — stage 0 and 1.
        let res = run(
            &mut pe,
            &mut mem,
            0,
            bytes.len() as u32,
            0x8000,
            4096,
            &[(0, ge, 10), (0, lt, 20)],
        );
        assert_eq!(res.tuples_in, 4);
        assert_eq!(res.tuples_out, 2); // (15,1) and (15,9)
    }

    #[test]
    fn extra_stage_adds_only_marginal_cycles() {
        // The paper: "additional filtering stages will only add very small
        // increases to the overall execution times".
        let one = "
            /* @autogen define parser F with input = T, output = T, stages = 1 */
            typedef struct { uint64_t a, b; } T;
        ";
        let five = "
            /* @autogen define parser F with input = T, output = T, stages = 5 */
            typedef struct { uint64_t a, b; } T;
        ";
        let mut mem = VecMem::new(1 << 20);
        let n = 1000u64;
        let mut bytes = Vec::new();
        for i in 0..n {
            bytes.extend_from_slice(&i.to_le_bytes());
            bytes.extend_from_slice(&i.to_le_bytes());
        }
        mem.write_bytes(0, &bytes);
        let mut res = Vec::new();
        for src in [one, five] {
            let mut pe = make_pe(src, "F");
            res.push(run(&mut pe, &mut mem, 0, bytes.len() as u32, 0x80000, 1 << 18, &[]));
        }
        let delta = res[1].cycles as i64 - res[0].cycles as i64;
        assert!((0..=8).contains(&delta), "5-stage pipeline cost {delta} extra cycles");
    }

    #[test]
    fn wide_tuples_flow_through_the_cycle_model() {
        // Regression: tuples wider than the 64-byte staging buffer used
        // to deadlock the pipeline (the buffer must fit a whole tuple).
        let src = "
            /* @autogen define parser W with input = T, output = T */
            typedef struct { uint64_t a, b, c, d, e, f, g, h; uint64_t i, j, k, l; } T;
        ";
        let mut pe = make_pe(src, "W");
        assert_eq!(pe.config().input.tuple_bytes(), 96);
        let mut mem = VecMem::new(1 << 16);
        let mut bytes = Vec::new();
        for v in 0..24u64 {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        mem.write_bytes(0, &bytes);
        let res = run(&mut pe, &mut mem, 0, bytes.len() as u32, 0x8000, 4096, &[]);
        assert_eq!(res.tuples_in, 2);
        assert_eq!(res.tuples_out, 2);
        assert_eq!(res.result_bytes, 192);
    }

    #[test]
    fn baseline_mode_ignores_src_len_and_pads_output() {
        let cfg = elaborate(&parse(POINTS).unwrap(), "P").unwrap();
        let chunk = cfg.chunk_bytes;
        let mut pe = PeSim::with_flexibility(cfg, false);
        let mut mem = VecMem::new(1 << 20);
        let _ = write_points(&mut mem, 0, &[(1, 2, 3)]);
        // Ask for 12 bytes; the fixed unit reads the whole 32 KiB chunk
        // and writes a whole chunk back.
        let res = run(&mut pe, &mut mem, 0, 12, 0x80000, chunk, &[]);
        assert_eq!(res.bytes_read, chunk);
        assert_eq!(res.bytes_written, chunk);
        // Tuples: whole chunk of 12-byte tuples (zeros also pass nop).
        assert_eq!(res.tuples_in, chunk / 12);
    }

    #[test]
    fn capacity_overflow_drops_excess_but_keeps_counts() {
        let mut pe = make_pe(POINTS, "P");
        let mut mem = VecMem::new(1 << 16);
        let len = write_points(&mut mem, 0, &[(1, 1, 1), (2, 2, 2), (3, 3, 3)]);
        // Capacity for only one 8-byte output tuple.
        let res = run(&mut pe, &mut mem, 0, len, 0x8000, 8, &[]);
        assert_eq!(res.tuples_out, 3, "filter counter counts passes, not stores");
        assert_eq!(res.result_bytes, 8);
    }

    #[test]
    fn total_stats_accumulate_across_blocks() {
        let mut pe = make_pe(POINTS, "P");
        let mut mem = VecMem::new(1 << 16);
        let len = write_points(&mut mem, 0, &[(1, 2, 3), (4, 5, 6)]);
        for _ in 0..3 {
            let _ = run(&mut pe, &mut mem, 0, len, 0x8000, 4096, &[]);
        }
        assert_eq!(pe.total.blocks, 3);
        assert_eq!(pe.total.tuples_in, 6);
    }

    // ------------------------------------------------------------------
    // The byte-moving loop the two planes replaced, kept as the reference
    // they are checked against: every byte through a `VecDeque`, memory
    // touched beat by beat, each filter run when the tuple reaches it.

    fn reference_run_block(pe: &mut PeSim, mem: &mut dyn MemBus) -> BlockResult {
        const BYTE_BUF: usize = super::BYTE_BUF as usize;
        let in_tuple = pe.processor.in_tuple_bytes();
        let out_tuple = pe.processor.out_tuple_bytes();
        let stage_programs: Vec<FilterProgram> = pe
            .regs
            .filters
            .iter()
            .map(|&(lane, op_code, value)| {
                pe.processor.compile(&[FilterRule { lane, op_code, value }], &pe.ops)
            })
            .collect();
        let stages = pe.cfg.stages as usize;
        // Aggregation Unit configuration: active only if the op is valid,
        // the hardware supports it, and the lane exists.
        let mut agg = if pe.regs.has_agg {
            ndp_ir::AggOp::from_code(pe.regs.agg_op)
                .filter(|op| pe.cfg.supports_aggregate(*op))
                .and_then(|op| AggAccumulator::new(&pe.processor, op, pe.regs.agg_field))
        } else {
            None
        };

        // Effective transfer length: flexible units honour SRC_LEN,
        // fixed units always move whole chunks.
        let src_len =
            if pe.flexible { pe.regs.src_len.min(pe.cfg.chunk_bytes) } else { pe.cfg.chunk_bytes };

        // Unit state. The word-side staging buffers must hold at least
        // one whole tuple plus a beat, or wide-tuple pipelines would
        // stall forever waiting for a complete tuple to assemble.
        let in_buf_cap = BYTE_BUF.max(in_tuple + 8);
        let mut load_remaining = u64::from(src_len);
        let mut load_addr = pe.regs.src_addr;
        let mut in_bytes: VecDeque<u8> = VecDeque::with_capacity(in_buf_cap);
        // Parsed tuples are carried as packed byte vectors: the oracle's
        // byte-level semantics apply directly and stage hand-off is a move.
        let mut parsed: VecDeque<Vec<u8>> = VecDeque::with_capacity(FIFO_TUPLES);
        let mut stage_q: Vec<VecDeque<Vec<u8>>> =
            (0..stages).map(|_| VecDeque::with_capacity(FIFO_TUPLES)).collect();
        let mut transformed: VecDeque<Vec<u8>> = VecDeque::with_capacity(FIFO_TUPLES);
        let mut out_bytes: VecDeque<u8> = VecDeque::with_capacity(BYTE_BUF);
        let mut store_addr = pe.regs.dst_addr;
        let mut capacity_left = u64::from(pe.regs.dst_capacity);

        let mut res = BlockResult::default();
        let mut cycles: u64 = 0;
        let mut tmp = [0u8; 8];
        // Hardware performance counters, accumulated cycle-accurately
        // alongside the pipeline (folded into the cumulative `CNT_*`
        // registers when the block completes).
        let mut stage_drops = vec![0u64; stages];
        let (mut in_stall, mut out_stall) = (0u64, 0u64);
        let (mut load_beats, mut store_beats) = (0u64, 0u64);
        let mut active = 0u64;

        loop {
            cycles += 1;
            let mut did_work = false;
            let upstream_empty = |stage_q: &Vec<VecDeque<Vec<u8>>>, parsed: &VecDeque<Vec<u8>>| {
                parsed.is_empty() && stage_q.iter().all(VecDeque::is_empty)
            };

            // --- Store Unit: drain up to one 64-bit beat per cycle.
            let flushing = load_remaining == 0
                && in_bytes.len() < in_tuple
                && upstream_empty(&stage_q, &parsed)
                && transformed.is_empty();
            if out_bytes.len() >= 8 || (flushing && !out_bytes.is_empty()) {
                let n = out_bytes.len().min(8).min(capacity_left as usize);
                if n > 0 {
                    for (b, o) in tmp.iter_mut().zip(out_bytes.drain(..n)) {
                        *b = o;
                    }
                    mem.write_bytes(store_addr, &tmp[..n]);
                    store_addr += n as u64;
                    capacity_left -= n as u64;
                    res.bytes_written += n as u32;
                    res.result_bytes += n as u32;
                    store_beats += 1;
                    did_work = true;
                } else if capacity_left == 0 {
                    // Result buffer full: drop the remainder (an AXI
                    // master would raise an IRQ; firmware sizes buffers
                    // so this only happens under fault injection).
                    out_bytes.clear();
                    did_work = true;
                }
            }

            // --- Tuple Output Buffer: serialize one tuple per cycle.
            if out_bytes.len() + out_tuple <= BYTE_BUF.max(out_tuple + 8) {
                if let Some(t) = transformed.pop_front() {
                    out_bytes.extend(t.iter());
                    did_work = true;
                }
            } else if !transformed.is_empty() {
                out_stall += 1;
            }

            // --- Data Transformation Unit: one tuple per cycle.
            let last_q_has_room = transformed.len() < FIFO_TUPLES;
            if last_q_has_room {
                let src = stage_q.last_mut().unwrap_or(&mut parsed);
                if let Some(tuple) = src.pop_front() {
                    let mut out = Vec::with_capacity(out_tuple);
                    pe.processor.transform_into(&tuple, &mut out);
                    transformed.push_back(out);
                    did_work = true;
                }
            }

            // --- Filtering Units, last stage first (back-pressure).
            for s in (0..stages).rev() {
                let dst_has_room = stage_q[s].len() < FIFO_TUPLES;
                if !dst_has_room {
                    continue;
                }
                let tuple = if s == 0 {
                    parsed.pop_front()
                } else {
                    let (left, right) = stage_q.split_at_mut(s);
                    let _ = &right;
                    left[s - 1].pop_front()
                };
                if let Some(tuple) = tuple {
                    did_work = true;
                    if stage_programs[s].passes(&tuple) {
                        if s == stages - 1 {
                            res.tuples_out += 1;
                            if let Some(acc) = agg.as_mut() {
                                if let Some(v) = pe.processor.lane_value(&tuple, acc.lane) {
                                    acc.update(v);
                                }
                            }
                        }
                        stage_q[s].push_back(tuple);
                    } else {
                        // Failing tuples are discarded (not enqueued).
                        stage_drops[s] += 1;
                    }
                }
            }

            // --- Tuple Input Buffer: assemble one tuple per cycle.
            if in_bytes.len() >= in_tuple && parsed.len() < FIFO_TUPLES {
                res.tuples_in += 1;
                parsed.push_back(in_bytes.drain(..in_tuple).collect());
                did_work = true;
            }

            // --- Load Unit: one 64-bit beat per cycle after the initial
            // AXI latency.
            if cycles > MEM_LATENCY_CYCLES && load_remaining > 0 {
                if in_bytes.len() + 8 <= in_buf_cap {
                    let n = load_remaining.min(8) as usize;
                    mem.read_bytes(load_addr, &mut tmp[..n]);
                    in_bytes.extend(tmp[..n].iter());
                    load_addr += n as u64;
                    load_remaining -= n as u64;
                    res.bytes_read += n as u32;
                    load_beats += 1;
                    did_work = true;
                } else {
                    in_stall += 1;
                }
            }

            if did_work {
                active += 1;
            }

            // --- Termination: everything drained.
            if load_remaining == 0
                && in_bytes.len() < in_tuple
                && upstream_empty(&stage_q, &parsed)
                && transformed.is_empty()
                && out_bytes.is_empty()
            {
                break;
            }
        }

        // Fixed-block baseline: the Store Unit always writes back a whole
        // block; pad the remainder with zeros (pure memory traffic).
        if !pe.flexible {
            let pad = u64::from(pe.cfg.chunk_bytes).saturating_sub(u64::from(res.bytes_written));
            let pad = pad.min(capacity_left);
            if pad > 0 {
                let zeros = [0u8; 64];
                let mut left = pad;
                let mut addr = store_addr;
                while left > 0 {
                    let n = left.min(64) as usize;
                    mem.write_bytes(addr, &zeros[..n]);
                    addr += n as u64;
                    left -= n as u64;
                }
                res.bytes_written += pad as u32;
                // One beat per cycle for the padding traffic.
                cycles += pad.div_ceil(8);
                store_beats += pad.div_ceil(8);
                active += pad.div_ceil(8);
            }
        }

        if let Some(acc) = agg {
            pe.regs.agg_result = acc.value();
        }
        res.cycles = cycles;

        // Fold the per-block measurements into the cumulative counter
        // registers. `active + idle == cycles` holds by construction.
        let p = &mut pe.regs.perf;
        p.tuples_in += u64::from(res.tuples_in);
        p.tuples_out += u64::from(res.tuples_out);
        p.in_stall += in_stall;
        p.out_stall += out_stall;
        p.active += active;
        p.idle += cycles - active;
        p.load_beats += load_beats;
        p.store_beats += store_beats;
        for (acc, d) in p.stage_drops.iter_mut().zip(&stage_drops) {
            *acc += *d;
        }
        res
    }

    /// One PE of the differential grid: a Fig. 8 tuple (all-`u32`, or half
    /// of it behind a 4-byte string prefix) behind a Fig. 9 filter chain,
    /// on 8 KiB chunks so a fixed-block run stays cheap.
    #[derive(Debug, Clone, Copy)]
    struct GridPe {
        bits: u32,
        half: bool,
        stages: u32,
        aggregate: bool,
        flexible: bool,
    }

    const GRID_CHUNK: u32 = 8192;
    const GRID_DST: u64 = 0x4000;
    /// Source chunk at 0, result region at [`GRID_DST`] with room for the
    /// ample capacity.
    const GRID_MEM: usize = 0x8000;

    impl GridPe {
        fn all() -> Vec<GridPe> {
            let mut pes = Vec::new();
            for bits in [64, 128, 256, 512, 1024, 2048] {
                for half in [false, true] {
                    for stages in 1..=8 {
                        for aggregate in [false, true] {
                            for flexible in [true, false] {
                                pes.push(GridPe { bits, half, stages, aggregate, flexible });
                            }
                        }
                    }
                }
            }
            pes
        }

        fn config(&self) -> PeConfig {
            let words = if self.half { self.bits / 64 - 1 } else { self.bits / 32 };
            let mut fields: String = (0..words).map(|i| format!("uint32_t f{i}; ")).collect();
            if self.half {
                fields += &format!("/* @string(prefix = 4) */ uint8_t s[{}];", self.bits / 16 + 4);
            }
            let aggregate = if self.aggregate { ", aggregate = { sum }" } else { "" };
            let src = format!(
                "/* @autogen define parser F with chunksize = {}, input = T, output = T,
                    stages = {}{aggregate} */
                 typedef struct {{ {fields} }} T;",
                GRID_CHUNK / 1024,
                self.stages
            );
            let cfg = elaborate(&parse(&src).unwrap(), "F").unwrap();
            assert_eq!(cfg.input.tuple_bytes(), u64::from(self.bits / 8));
            cfg
        }

        /// A PE of this shape, summing lane 0 if it aggregates.
        fn build(&self, cfg: &PeConfig) -> PeSim {
            let mut pe = PeSim::with_flexibility(cfg.clone(), self.flexible);
            pe.regs.agg_op = ndp_ir::AggOp::Sum.code();
            pe.regs.agg_field = 0;
            pe
        }
    }

    /// One job of the grid: what the registers hold at START.
    #[derive(Debug, Clone)]
    struct GridJob {
        rules: Vec<(u32, u32, u64)>,
        len: u32,
        capacity: u32,
    }

    /// Selectivity {0, ~1 %, ~50 %, 100 %} x length {whole chunk, trailing
    /// partial tuple ending on a whole and on a partial beat, under one
    /// tuple, nothing} x capacity {ample, 100 B, 4 KiB}. Every lane is a uniformly random `u32`, so `lt` against a
    /// fraction of 2^32 sets a stage's pass rate; a fixed-block PE ignores
    /// SRC_LEN and gets one length.
    fn grid_jobs(cfg: &PeConfig, flexible: bool) -> Vec<GridJob> {
        let (nop, lt) = (cfg.nop_code(), cfg.op_code("lt").unwrap());
        let stages = cfg.stages;
        let spread = |pass: f64| -> Vec<(u32, u32, u64)> {
            let per_stage = pass.powf(1.0 / f64::from(stages));
            (0..stages)
                .map(|s| (s % cfg.input.lanes, lt, (per_stage * 4294967296.0) as u64))
                .collect()
        };
        // Nothing passes, decided by the last stage: every tuple walks
        // the whole chain first.
        let mut none = vec![(0, nop, 0); stages as usize];
        none[stages as usize - 1] = (0, lt, 0);
        let selectivities = [none, spread(0.01), spread(0.5), vec![(0, nop, 0); stages as usize]];
        let tuple = cfg.input.tuple_bytes() as u32;
        let lens = [GRID_CHUNK, 1000, 1003, tuple - 1, 0];
        let mut jobs = Vec::new();
        for rules in &selectivities {
            for &len in if flexible { &lens[..] } else { &lens[..1] } {
                for capacity in [2 * GRID_CHUNK, 100, 4096] {
                    jobs.push(GridJob { rules: rules.clone(), len, capacity });
                }
            }
        }
        jobs
    }

    /// Run one job on `pe` and, through the byte-moving loop, on its twin
    /// `reference`, each over its own copy of `image`: everything
    /// observable must agree. Returns the result and the memory afterwards.
    fn assert_equals_reference(
        pe: &mut PeSim,
        reference: &mut PeSim,
        image: &[u8],
        (src, len): (u64, u32),
        (dst, cap): (u64, u32),
        rules: &[(u32, u32, u64)],
        at: &str,
    ) -> (BlockResult, VecMem) {
        let mut mem = VecMem::from_bytes(image.to_vec());
        let mut reference_mem = VecMem::from_bytes(image.to_vec());
        configure(pe, src, len, dst, cap, rules);
        configure(reference, src, len, dst, cap, rules);
        let got = pe.execute(&mut mem);
        assert_eq!(got, reference_run_block(reference, &mut reference_mem), "{at}");
        assert_eq!(pe.regs.perf, reference.regs.perf, "{at}");
        assert_eq!(pe.regs.agg_result, reference.regs.agg_result, "{at}");
        assert!(mem.as_slice() == reference_mem.as_slice(), "{at}: memory images differ");
        (got, mem)
    }

    #[test]
    fn two_planes_equal_the_byte_moving_loop_on_the_grid() {
        let mut cells = 0;
        for (i, shape) in GridPe::all().iter().enumerate() {
            let cfg = shape.config();
            // One PE pair per shape: the counters are cumulative and the
            // scratch buffers are reused, so both are compared as well.
            let (mut pe, mut reference) = (shape.build(&cfg), shape.build(&cfg));
            let mut image = vec![0u8; GRID_MEM];
            SplitMix64::new(0x6772_6964 + i as u64).fill_bytes(&mut image);
            for job in grid_jobs(&cfg, shape.flexible) {
                let (src, dst) = ((0, job.len), (GRID_DST, job.capacity));
                let at = format!("{shape:?} {job:?}");
                assert_equals_reference(&mut pe, &mut reference, &image, src, dst, &job.rules, &at);
                cells += 1;
            }
        }
        assert!(cells >= 1000, "{cells} configurations");
    }

    #[test]
    fn results_written_over_the_source_trail_the_load_pointer() {
        // `dst == src` with output tuples no wider than input tuples is
        // the one aliasing the streaming hardware supports: a result byte
        // lands on a source byte the Load Unit has already passed. A
        // projection (12 -> 8 bytes) and an identity, both half-selective.
        let wide = GridPe { bits: 256, half: false, stages: 2, aggregate: false, flexible: true };
        for cfg in [elaborate(&parse(POINTS).unwrap(), "P").unwrap(), wide.config()] {
            let mut image = vec![0u8; 0x4000];
            SplitMix64::new(0x616c_6961).fill_bytes(&mut image);
            let lt = cfg.op_code("lt").unwrap();
            let len = 8192 / cfg.input.tuple_bytes() as u32 * cfg.input.tuple_bytes() as u32;
            let (mut pe, mut reference) = (PeSim::new(cfg.clone()), PeSim::new(cfg.clone()));
            let rules = [(0, lt, 1 << 31)];
            let (res, _) = assert_equals_reference(
                &mut pe,
                &mut reference,
                &image,
                (0, len),
                (0, len),
                &rules,
                &cfg.name,
            );
            assert!(res.tuples_out > 0 && res.tuples_out < res.tuples_in, "{res:?}");
        }
    }

    #[test]
    fn a_hand_built_zero_stage_pe_stores_every_tuple_and_counts_none() {
        // The parser rejects `stages = 0`, a hand-built `PeConfig` can
        // carry it: the transformation unit then reads the parsed-tuple
        // FIFO directly. No Filtering Unit means nothing counts a pass,
        // so TUPLES_OUT stays 0 while every tuple is stored; pinned as
        // the reference behaves.
        let mut cfg = elaborate(&parse(POINTS).unwrap(), "P").unwrap();
        cfg.stages = 0;
        let mut image = VecMem::new(0x1_0000);
        let len = write_points(&mut image, 0, &[(1, 2, 3), (4, 5, 6), (7, 8, 9)]);
        let (mut pe, mut reference) = (PeSim::new(cfg.clone()), PeSim::new(cfg.clone()));
        let (res, mem) = assert_equals_reference(
            &mut pe,
            &mut reference,
            image.as_slice(),
            (0, len),
            (0x8000, 4096),
            &[],
            "stages = 0",
        );
        assert_eq!((res.tuples_in, res.tuples_out, res.result_bytes), (3, 0, 24));
        assert_eq!(&mem.as_slice()[0x8000..0x8008], &[2, 0, 0, 0, 3, 0, 0, 0]);
    }

    #[test]
    fn analytic_estimate_stays_inside_its_measured_envelope() {
        // `estimate_block_cycles` is what the DES charges per hardware
        // block; this pins how far it sits from the cycle-level model
        // over the grid, signed, as measured. Blocks under one tuple are
        // left out: there the constant fill/drain terms are the whole
        // count and a relative error says nothing.
        //
        // Per class `[fixed-block, flexible]`: lowest and highest signed
        // error with the cell that produced it.
        let mut envelope = [[(0.0f64, String::new()), (0.0, String::new())], Default::default()];
        for shape in GridPe::all().iter().filter(|s| !s.aggregate) {
            let cfg = shape.config();
            let mut pe = shape.build(&cfg);
            let mut mem = VecMem::new(GRID_MEM);
            SplitMix64::new(0x656e_7665).fill_bytes(&mut mem.as_mut_slice()[..GRID_CHUNK as usize]);
            for job in grid_jobs(&cfg, shape.flexible).iter().filter(|j| j.len >= 1000) {
                configure(&mut pe, 0, job.len, GRID_DST, job.capacity, &job.rules);
                let res = pe.execute(&mut mem);
                let estimate = estimate_block_cycles(
                    u64::from(res.bytes_read),
                    u64::from(res.tuples_in),
                    u64::from(res.bytes_written),
                    cfg.stages,
                );
                let err = (estimate as f64 - res.cycles as f64) / res.cycles as f64;
                let [low, high] = &mut envelope[usize::from(shape.flexible)];
                let cell = || format!("{estimate} vs {} cycles on {shape:?} {job:?}", res.cycles);
                if err < low.0 {
                    *low = (err, cell());
                }
                if err > high.0 {
                    *high = (err, cell());
                }
            }
        }
        // Flexible PEs: the estimate is short by the output buffer's
        // drain of the last wide tuple (2048-bit tuples, one stage, all
        // pass, whole chunk: 1053 for 1084 cycles) and long where eight
        // stages of fill are charged to a block of under two tuples'
        // worth of beats (512-bit, eight stages, ~1 %, 1 000 bytes: 161
        // for 149). Fixed-block PEs: the cycle model pads the block
        // *after* the stream has drained, the estimate overlaps the two,
        // so it is up to half short (64-bit, nothing passes: 1053 for
        // 2074) — the closed-form estimate has to settle which is right.
        let percent = |class: usize| {
            let [low, high] = &envelope[class];
            [format!("{:+.1} %", 100.0 * low.0), format!("{:+.1} %", 100.0 * high.0)]
        };
        assert_eq!(percent(1), ["-2.9 %", "+8.1 %"], "flexible: {:#?}", envelope[1]);
        assert_eq!(percent(0), ["-49.2 %", "+1.0 %"], "fixed-block: {:#?}", envelope[0]);
    }
}
