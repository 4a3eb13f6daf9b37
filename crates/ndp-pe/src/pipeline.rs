//! Cycle-level model of the generated PE pipeline.
//!
//! The template's units are *latency-insensitive*: every unit talks to its
//! neighbours through elastic FIFOs with ready/valid semantics, so they can
//! simply be wired up in sequence (paper, Sec. IV-B "Composition"). The
//! simulator mirrors that structure: bounded queues between stage structs,
//! one `tick` per 100 MHz PL clock cycle, downstream stages ticked first so
//! back-pressure propagates exactly like combinational ready signals.
//!
//! Steady-state throughput is `min(8 bytes/cycle memory, 1 tuple/cycle
//! compute)` — which is why the paper's multi-stage filters add only
//! marginal latency (each stage is one extra pipeline register) and why a
//! PE at 100 MHz (800 MB/s) is never the bottleneck behind ~200 MB/s of
//! flash.

use crate::membus::MemBus;
use crate::oracle::{BlockProcessor, FilterProgram, FilterRule, OpTable};
use crate::regs::{offsets, Mmio, RegState, RegisterMap};
use crate::PeDevice;
use ndp_ir::PeConfig;
use std::collections::VecDeque;

/// Initial AXI read latency in PL cycles before the first beat arrives.
pub const MEM_LATENCY_CYCLES: u64 = 24;
/// Queue capacity (tuples) of the elastic FIFOs between units.
const FIFO_TUPLES: usize = 4;
/// Byte capacity of the word-side staging buffers.
const BYTE_BUF: usize = 64;

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
        Self { cfg, map, regs, ops, processor, flexible, total: TotalStats::default() }
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
        let cfg = self.cfg.clone();
        self.ops.bind_custom(&cfg, name, f)
    }

    /// The configured rule registers, compiled one program per Filtering
    /// Unit (a stage sees only its own rule).
    fn stage_programs(&self) -> Vec<FilterProgram> {
        self.regs
            .filters
            .iter()
            .map(|&(lane, op_code, value)| {
                self.processor.compile(&[FilterRule { lane, op_code, value }], &self.ops)
            })
            .collect()
    }

    /// Run the configured block cycle by cycle against `mem`.
    fn run_block(&mut self, mem: &mut dyn MemBus) -> BlockResult {
        let in_tuple = self.processor.in_tuple_bytes();
        let out_tuple = self.processor.out_tuple_bytes();
        let stage_programs = self.stage_programs();
        let stages = self.cfg.stages as usize;
        // Aggregation Unit configuration: active only if the op is valid,
        // the hardware supports it, and the lane exists.
        let mut agg = if self.regs.has_agg {
            ndp_ir::AggOp::from_code(self.regs.agg_op)
                .filter(|op| self.cfg.supports_aggregate(*op))
                .and_then(|op| {
                    crate::oracle::AggAccumulator::new(&self.processor, op, self.regs.agg_field)
                })
        } else {
            None
        };

        // Effective transfer length: flexible units honour SRC_LEN,
        // fixed units always move whole chunks.
        let src_len = if self.flexible {
            self.regs.src_len.min(self.cfg.chunk_bytes)
        } else {
            self.cfg.chunk_bytes
        };

        // Unit state. The word-side staging buffers must hold at least
        // one whole tuple plus a beat, or wide-tuple pipelines would
        // stall forever waiting for a complete tuple to assemble.
        let in_buf_cap = BYTE_BUF.max(in_tuple + 8);
        let mut load_remaining = u64::from(src_len);
        let mut load_addr = self.regs.src_addr;
        let mut in_bytes: VecDeque<u8> = VecDeque::with_capacity(in_buf_cap);
        // Parsed tuples are carried as packed byte vectors: the oracle's
        // byte-level semantics apply directly and stage hand-off is a move.
        let mut parsed: VecDeque<Vec<u8>> = VecDeque::with_capacity(FIFO_TUPLES);
        let mut stage_q: Vec<VecDeque<Vec<u8>>> =
            (0..stages).map(|_| VecDeque::with_capacity(FIFO_TUPLES)).collect();
        let mut transformed: VecDeque<Vec<u8>> = VecDeque::with_capacity(FIFO_TUPLES);
        let mut out_bytes: VecDeque<u8> = VecDeque::with_capacity(BYTE_BUF);
        let mut store_addr = self.regs.dst_addr;
        let mut capacity_left = u64::from(self.regs.dst_capacity);

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
                    self.processor.transform_into(&tuple, &mut out);
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
                                if let Some(v) = self.processor.lane_value(&tuple, acc.lane) {
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
        if !self.flexible {
            let pad = u64::from(self.cfg.chunk_bytes).saturating_sub(u64::from(res.bytes_written));
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
            self.regs.agg_result = acc.value();
        }
        res.cycles = cycles;

        // Fold the per-block measurements into the cumulative counter
        // registers. `active + idle == cycles` holds by construction.
        let p = &mut self.regs.perf;
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

    /// Snapshot of the cumulative hardware performance counters (the
    /// `CNT_*` registers, without the register-interface truncation).
    pub fn perf(&self) -> &crate::regs::PerfCounters {
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
    fn analytic_estimate_tracks_cycle_model() {
        let mut pe = make_pe(POINTS, "P");
        let mut mem = VecMem::new(1 << 20);
        for n in [1u32, 7, 64, 500] {
            let pts: Vec<(u32, u32, u32)> = (0..n).map(|i| (i, i, i)).collect();
            let len = write_points(&mut mem, 0, &pts);
            let res = run(&mut pe, &mut mem, 0, len, 0x40000, 1 << 18, &[]);
            let est = estimate_block_cycles(
                u64::from(len),
                u64::from(n),
                u64::from(res.bytes_written),
                pe.stages(),
            );
            let err = (res.cycles as f64 - est as f64).abs() / res.cycles as f64;
            assert!(
                err < 0.12,
                "estimate {est} vs measured {} for n={n} (err {err:.3})",
                res.cycles
            );
        }
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
}
