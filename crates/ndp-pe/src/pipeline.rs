//! Cycle-level model of the generated PE pipeline.
//!
//! The template's units are *latency-insensitive*: every unit talks to its
//! neighbours through elastic FIFOs with ready/valid semantics, so they can
//! simply be wired up in sequence (paper, Sec. IV-B "Composition"): Load
//! Unit, Tuple Input Buffer, Filtering Units, Data Transformation Unit,
//! Tuple Output Buffer, Store Unit, with 4-deep tuple FIFOs between them.
//!
//! What a tuple *holds* reaches the timing through one fact only: which
//! Filtering Unit drops it. So a block runs as two planes. The **data
//! plane** reads the source once, decides every tuple's *fate* (the first
//! stage that drops it) with the per-stage [`FilterProgram`]s, folds the
//! aggregate and transforms the survivors into one output buffer. The
//! **schedule plane** computes in which 100 MHz PL cycle each tuple leaves
//! each unit; what reaches memory is what the Store Unit's beats carried.
//!
//! *Same-cycle rule.* A cycle settles downstream first, like ready
//! signals: a slot freed in cycle `t` is refilled from upstream in `t`,
//! and what enters a buffer in cycle `t` leaves it in `t + 1` at the
//! earliest.
//!
//! *Tuple stations.* The Filtering Units, the Data Transformation Unit and
//! the Tuple Output Buffer pass one tuple a cycle, in order. The cycle in
//! which the `i`-th tuple to reach station `s` leaves it is the max-plus
//! recurrence `D[i][s] = max(D[i][s-1] + 1, D[i-1][s] + 1, D[i-4][s+1])`:
//! the hop from the station before, one a cycle, and a free slot in the
//! FIFO behind (`i - 4` counted among the tuples entering it), which a
//! Filtering Unit needs even for a tuple it drops. Only the output
//! buffer's room makes a departure later than the free flow `A + s + 1`
//! (`A`: when the Tuple Input Buffer passed the tuple on), and a departure
//! in free flow never binds a later tuple, so a tuple that arrives after
//! every late departure so far skips the walk.
//!
//! *Word-side stations.* Beats are runs that rise one a cycle. Load beat
//! `b` fires at `max(25, L[b-1] + 1, A[k-1])`: after the 24-cycle AXI
//! latency, one a cycle, once `k` tuples have left the `max(64, in + 8)`
//! byte input buffer to make room. A tuple is passed on a cycle after the
//! beat that completes it. A survivor is serialized once it fits in the
//! `max(64, out + 8)` byte output buffer; a store beat fires a cycle after
//! the survivor that completes it, one a cycle, and once nothing upstream
//! can move a partial beat flushes the rest. The beat that meets the
//! result capacity stores what fits, later firings drop the buffer, and
//! the fixed-block pad follows the drain, a beat a cycle. A block costs
//! O(tuples × stations walked + beat runs); nothing loops over cycles.
//!
//! *Counters.* `idle` is the AXI latency (1 for an empty block): after it
//! every cycle moves a beat or a tuple, as a blocked unit waits on a full
//! output buffer, whose Store Unit fires. `active` is the rest. `in_stall`
//! counts the cycles to the last load beat that moved none, `out_stall`
//! the cycles survivors waited at the head of their FIFO. `tuples_in`,
//! `tuples_out` and `stage_drops` count fates; `load_beats` and
//! `store_beats` count the beats that moved bytes.
//!
//! Steady-state throughput is `min(8 bytes/cycle memory, 1 tuple/cycle
//! compute)` — which is why the paper's multi-stage filters add only
//! marginal latency (each stage is one extra pipeline register) and why a
//! PE at 100 MHz (800 MB/s) is never the bottleneck behind ~200 MB/s of
//! flash.

use crate::membus::MemBus;
use crate::oracle::{AggAccumulator, BlockProcessor, FilterProgram, OpTable};
use crate::regs::{Mmio, RegState, RegisterMap};
use crate::template::PeVariant;
use crate::PeDevice;
use ndp_ir::{IrError, IrResult, PeConfig};

/// Initial AXI read latency in PL cycles before the first beat arrives.
pub(crate) const MEM_LATENCY_CYCLES: u64 = 24;
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

/// Cumulative hardware performance counters, counted as the module doc
/// says: the `CNT_*` rows of the register file, cleared together through
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
        *self = Self::new(self.stage_drops.len() as u32);
    }

    /// Tuples dropped across all stages.
    pub fn dropped_total(&self) -> u64 {
        self.stage_drops.iter().sum()
    }

    /// The `i`-th counter row after `CNT_CTRL`, as it reads.
    pub(crate) fn word(&self, i: usize) -> u32 {
        let fixed = [
            self.tuples_in,
            self.tuples_out,
            self.in_stall,
            self.out_stall,
            self.active,
            self.idle,
            self.load_beats,
            self.store_beats,
        ];
        let v = fixed.get(i).or_else(|| self.stage_drops.get(i - fixed.len()));
        v.copied().unwrap_or(0) as u32
    }
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

/// Cycle-level PE simulator: a generated PE ([`PeSim::new`]) or the
/// hand-crafted PE of \[1\] ([`PeSim::baseline`]), whose fixed Load and
/// Store Units always move whole chunks.
pub struct PeSim {
    cfg: PeConfig,
    regs: RegState,
    ops: OpTable,
    processor: BlockProcessor,
    flexible: bool,
    scratch: Scratch,
}

/// Index of the first Filtering Unit that drops a tuple, the stage count
/// for a survivor. As wide as [`PeConfig::stages`]: the parser stops at
/// 64 stages, a hand-built configuration need not.
type Fate = u32;

/// A tuple station as the departures of its last [`FIFO_TUPLES`] visitors.
#[derive(Clone, Copy, Default)]
struct Station {
    departed: [u64; FIFO_TUPLES],
    visits: usize,
}

impl Station {
    /// When the previous visitor left (0 before the first).
    fn last(&self) -> u64 {
        self.departed[(self.visits + FIFO_TUPLES - 1) % FIFO_TUPLES]
    }

    /// When the FIFO in front has room for the next visitor (0 before).
    fn freed(&self) -> u64 {
        self.departed[self.visits % FIFO_TUPLES]
    }

    fn depart(&mut self, at: u64) {
        self.departed[self.visits % FIFO_TUPLES] = at;
        self.visits += 1;
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
    /// Each Filtering Unit, then the transformation unit and output buffer.
    stations: Vec<Station>,
    load: LoadRuns,
    /// The cycle each survivor was serialized, kept only when the result
    /// capacity can run out.
    serialized: Vec<u64>,
}

/// The Load Unit's beats as runs: beat `b` fires in cycle `b + lift` of the
/// last run starting at or before `b`, a run at each beat that waited.
#[derive(Default)]
struct LoadRuns {
    /// `(first beat, lift)`, both rising.
    runs: Vec<(u64, u64)>,
    /// The run in force for the beat looked up last, its lift, and the
    /// first beat of the run after it.
    at: usize,
    lift: u64,
    next: u64,
}

impl LoadRuns {
    fn reset(&mut self) {
        self.runs.clear();
        self.runs.push((0, MEM_LATENCY_CYCLES + 1));
        (self.at, self.lift, self.next) = (0, MEM_LATENCY_CYCLES + 1, u64::MAX);
    }

    /// Beats from `first` on fit once a tuple passed on in `passed_on`.
    fn wait(&mut self, first: u64, passed_on: u64) {
        let lift = passed_on.saturating_sub(first);
        if self.runs.last().is_some_and(|&(_, top)| lift > top) {
            self.runs.push((first, lift));
            self.next = self.next.min(first);
        }
    }

    /// The cycle beat `b` fires in; `b` never falls between calls.
    fn fires(&mut self, b: u64) -> u64 {
        while b >= self.next {
            self.at += 1;
            self.lift = self.runs[self.at].1;
            self.next = self.runs.get(self.at + 1).map_or(u64::MAX, |&(first, _)| first);
        }
        b + self.lift
    }
}

/// What the schedule plane needs to know of a block besides its fates.
struct Shape {
    in_tuple: u64,
    out_tuple: u64,
    src_len: u64,
    capacity: u64,
}

/// Schedule plane: walk every tuple of one block through the stations it
/// reaches (the recurrence of the module doc), counting into the `CNT_*`
/// bank. Tuple `i` is dropped by stage `fates[i]`. `bytes_written` of the
/// result is the Store Unit's payload; padding is the caller's.
fn schedule(shape: &Shape, scratch: &mut Scratch, perf: &mut PerfCounters) -> BlockResult {
    let Shape { in_tuple, out_tuple, src_len, capacity } = *shape;
    let Scratch { fates, stations, load, serialized, .. } = scratch;
    let stages = stations.len() - 2;
    let (dtu, tob) = (stages, stages + 1);
    let n = fates.len() as u64;
    // The word-side staging buffers must hold at least one whole tuple
    // plus a beat, or wide-tuple pipelines would stall forever waiting
    // for a complete tuple to assemble.
    let in_buf_cap = BYTE_BUF.max(in_tuple + 8);
    let out_buf_cap = BYTE_BUF.max(out_tuple + 8);
    // Full store beat `qc` meets the result capacity.
    let (qc, partial) = (capacity / 8, capacity % 8 > 0);
    // The first load beat that fits only once `k` tuples are passed on.
    let first_gated = |k: u64| (k.saturating_sub(1) * in_tuple + in_buf_cap) / 8;
    let keep = capacity < n * out_tuple;
    load.reset();
    serialized.clear();
    // Store Unit: first beat and cycle of its current run of back-to-back
    // beats, the cycle after its last beat, and the cycle of beat `qc`.
    let (mut busy, mut store_free, mut spent) = ((0, 0), 0, 0);
    let (mut passed_on, mut t_last, mut out_stall, mut serial, mut survivors) = (0u64, 0, 0, 0, 0);
    // The latest departure that came later than the free flow `A + s + 1`.
    let mut horizon = 0;
    for (i, &fate) in (0u64..).zip(fates.iter()) {
        // Tuple Input Buffer: a cycle after the beat completing the tuple.
        load.wait(first_gated(i), passed_on);
        let beat = ((i + 1) * in_tuple).div_ceil(8) - 1;
        let mut t = (passed_on + 1).max(load.fires(beat) + 1);
        // Filtering Units up to the one that drops it, or on through the
        // Data Transformation Unit.
        let reach = (fate as usize).min(dtu);
        let free = t >= horizon;
        if free {
            // Nothing ahead was late enough to block it, and it blocks
            // nothing behind it: no station records it.
            passed_on = t;
            t += reach as u64 + 1;
        } else {
            t = t.max(stations[0].freed());
            passed_on = t;
            for s in 0..=reach {
                t = (t + 1).max(stations[s].last() + 1).max(stations[s + 1].freed());
                stations[s].depart(t);
                if t > passed_on + s as u64 + 1 {
                    horizon = horizon.max(t);
                }
            }
        }
        if (fate as usize) < stages {
            perf.stage_drops[fate as usize] += 1;
        } else {
            // Tuple Output Buffer: room once the bytes `need` ahead are
            // stored, or once the capacity is spent. Only a Store Unit
            // still busy when the survivor is ready can hold it back, and
            // then not with a beat from before its current run.
            let ready = if free { t + 1 } else { (t + 1).max(stations[tob].last() + 1) };
            let first = serial / 8;
            (serial, survivors) = (serial + out_tuple, survivors + 1);
            let need = serial.saturating_sub(out_buf_cap);
            let room = if store_free > ready && need > 0 {
                let q = ((need - 1) / 8).min(qc);
                q.checked_sub(busy.0)
                    .map_or(0, |d| busy.1 + d + u64::from(partial && need > capacity))
            } else {
                0
            };
            t = ready.max(room);
            out_stall += t - ready;
            if !free || t > ready {
                stations[tob].depart(t);
            }
            if t > passed_on + tob as u64 + 1 {
                horizon = horizon.max(t);
            }
            // Store Unit: the beats `first..serial / 8` this survivor completes.
            if serial / 8 > first {
                if t + 1 > store_free {
                    (busy, store_free) = ((first, t + 1), t + 1);
                }
                if (first..serial / 8).contains(&qc) {
                    spent = store_free + qc - first;
                }
                store_free += serial / 8 - first;
            }
            if keep {
                serialized.push(t);
            }
        }
        t_last = t_last.max(t);
    }

    // The Load Unit's last beat.
    let beats = src_len.div_ceil(8);
    load.wait(first_gated(n), passed_on);
    let last = if beats > 0 { load.fires(beats - 1) } else { 0 };
    t_last = t_last.max(last);

    // The Store Unit after the last tuple: its full beats, then the flush
    // of a partial beat, and what the capacity lets through.
    let stored = serial.min(capacity);
    let end = if qc < serial / 8 {
        // Full beat `qc` met the capacity in cycle `spent`; from then on
        // each firing (a whole word held, or the flush) drops the buffer.
        // Follow what it holds to the last drop.
        let before = serialized.partition_point(|&o| o < spent);
        let mut held = if partial { before as u64 * out_tuple - capacity } else { 0 };
        let mut at = spent;
        for &o in &serialized[before..] {
            held = if o > at && held >= 8 { 0 } else { held } + out_tuple;
            at = o;
        }
        match held {
            0 => at.max(t_last),
            1..=7 => at.max(t_last) + 1,
            _ => (at + 1).max(t_last),
        }
    } else if serial % 8 > 0 {
        // A flush that meets the capacity stores what fits and drops the
        // rest in the next cycle.
        store_free.max(t_last + 1) + u64::from(partial && serial > capacity)
    } else {
        (store_free.max(1) - 1).max(t_last)
    };
    let cycles = end.max(1);

    let tuples_out = if stages > 0 { survivors } else { 0 };
    let idle = cycles.min(MEM_LATENCY_CYCLES);
    perf.tuples_in += n;
    perf.tuples_out += tuples_out;
    perf.in_stall += last.saturating_sub(MEM_LATENCY_CYCLES + beats);
    perf.out_stall += out_stall;
    perf.active += cycles - idle;
    perf.idle += idle;
    perf.load_beats += beats;
    perf.store_beats += stored.div_ceil(8);
    BlockResult {
        cycles,
        tuples_in: n as u32,
        tuples_out: tuples_out as u32,
        bytes_read: src_len as u32,
        bytes_written: stored as u32,
        result_bytes: stored as u32,
    }
}

impl PeSim {
    /// Build a generated (flexible) PE from its configuration.
    pub fn new(cfg: PeConfig) -> Self {
        Self::build(cfg, PeVariant::Generated)
    }

    /// Build the hand-crafted PE of \[1\] that computes what `cfg`'s
    /// generated PE does, named `<name>_baseline`; fails where
    /// [`PeSim::check_baseline`] does.
    pub fn baseline(mut cfg: PeConfig) -> IrResult<Self> {
        Self::check_baseline(&cfg)?;
        cfg.name = format!("{}_baseline", cfg.name);
        Ok(Self::build(cfg, PeVariant::HandCrafted))
    }

    /// Whether the architecture of \[1\] can build `cfg`: a typed error for
    /// multiple stages, an aggregation unit or a custom operator.
    pub fn check_baseline(cfg: &PeConfig) -> IrResult<()> {
        let refuse = |reason: String| {
            Err(IrError::UnsupportedByBaseline { parser: cfg.name.clone(), reason })
        };
        if cfg.stages != 1 {
            return refuse(format!("a chain of {} filtering stages", cfg.stages));
        }
        if !cfg.aggregates.is_empty() {
            return refuse("an aggregation unit".into());
        }
        if let Some(custom) = cfg.operators.iter().find(|o| o.op.is_none()) {
            return refuse(format!("the custom operator `{}`", custom.name));
        }
        Ok(())
    }

    fn build(cfg: PeConfig, variant: PeVariant) -> Self {
        let regs = RegState::new(&RegisterMap::of(&cfg, variant));
        let ops = OpTable::from_config(&cfg);
        let processor = BlockProcessor::new(&cfg);
        let flexible = variant == PeVariant::Generated;
        Self { cfg, regs, ops, processor, flexible, scratch: Scratch::default() }
    }

    /// A generated PE's registers over fixed (`flexible = false`) Load and
    /// Store Units: the fixed-block datapath on shapes \[1\] cannot build.
    #[cfg(test)]
    pub(crate) fn with_flexibility(cfg: PeConfig, flexible: bool) -> Self {
        Self { flexible, ..Self::new(cfg) }
    }

    /// The PE's configuration.
    #[cfg(test)]
    pub(crate) fn config(&self) -> &PeConfig {
        &self.cfg
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
        let mut agg = self.regs.aggregate().and_then(|(code, lane)| {
            ndp_ir::AggOp::from_code(code)
                .filter(|op| self.cfg.supports_aggregate(*op))
                .and_then(|op| AggAccumulator::new(&self.processor, op, lane))
        });
        let s = &mut self.scratch;
        s.programs.clear();
        s.programs.extend(self.regs.rules().map(|rule| self.processor.compile(&[rule], &self.ops)));
        s.input.resize(src_len, 0);
        if src_len > 0 {
            mem.read_bytes(self.regs.job().0, &mut s.input);
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

    /// Run the configured block against `mem` and post its results to
    /// the register file.
    fn run_block(&mut self, mem: &mut dyn MemBus) -> BlockResult {
        // Flexible units honour SRC_LEN and DST_CAPACITY; the fixed units
        // of [1] ignore both, load a whole chunk and store a whole chunk.
        let (chunk, (_, src_len, dst, capacity)) = (self.cfg.chunk_bytes, self.regs.job());
        let (src_len, capacity) =
            if self.flexible { (src_len.min(chunk), capacity) } else { (chunk, chunk) };
        let agg = self.decide_fates(mem, src_len as usize);

        let s = &mut self.scratch;
        s.stations.clear();
        s.stations.resize(s.programs.len() + 2, Station::default());
        let shape = Shape {
            in_tuple: self.processor.in_tuple_bytes() as u64,
            out_tuple: self.processor.out_tuple_bytes() as u64,
            src_len: u64::from(src_len),
            capacity: u64::from(capacity),
        };
        let perf = &mut self.regs.perf;
        let mut res = schedule(&shape, s, perf);

        // What reaches memory is what the Store Unit's beats carried.
        s.output.truncate(res.result_bytes as usize);
        // Fixed-block baseline: the Store Unit always writes back a whole
        // block; pad the remainder with zeros (pure memory traffic, one
        // beat per cycle).
        if !self.flexible {
            let pad = chunk - res.result_bytes;
            s.output.resize(chunk as usize, 0);
            res.bytes_written += pad;
            let beats = u64::from(pad.div_ceil(8));
            res.cycles += beats;
            perf.store_beats += beats;
            perf.active += beats;
        }
        if !s.output.is_empty() {
            mem.write_bytes(dst, &s.output);
        }
        self.regs.finish(&res, agg.map(|acc| acc.value()));
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
        self.regs.write(offset, value);
    }
}

impl PeDevice for PeSim {
    fn execute(&mut self, mem: &mut dyn MemBus) -> BlockResult {
        if !self.regs.start_pending {
            return BlockResult::default();
        }
        self.regs.start_pending = false;
        self.run_block(mem)
    }

    fn stages(&self) -> u32 {
        self.cfg.stages
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membus::VecMem;
    use crate::oracle::FilterRule;
    use crate::regs::{agg_offsets, offsets, RegisterMap};
    use ndp_ir::{elaborate, elaborate_with_custom_ops};
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
        assert_eq!(pe.mmio_read(RegisterMap::for_config(&pe.cfg).filter_counter_offset()), 1);
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
        // Cross-validate the cycle-level pipeline against the byte-level
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

    const REFS: &str = "
        /* @autogen define parser RefPe with input = Ref, output = Ref */
        typedef struct { uint64_t src; uint64_t dst; uint32_t weight; } Ref;
    ";

    #[test]
    fn baseline_matches_generated_results() {
        let cfg = elaborate(&parse(REFS).unwrap(), "RefPe").unwrap();
        let chunk = cfg.chunk_bytes;
        let mut gen = PeSim::new(cfg.clone());
        let mut base = PeSim::baseline(cfg.clone()).unwrap();

        // One full 32 KiB block of refs.
        let mut mem = VecMem::new(1 << 20);
        let mut bytes = Vec::new();
        let mut i = 0u64;
        while bytes.len() + 20 <= chunk as usize {
            bytes.extend_from_slice(&i.to_le_bytes());
            bytes.extend_from_slice(&(i * 3).to_le_bytes());
            bytes.extend_from_slice(&((i % 97) as u32).to_le_bytes());
            i += 1;
        }
        bytes.resize(chunk as usize, 0);
        mem.write_bytes(0, &bytes);

        let gt = cfg.op_code("gt").unwrap();
        let mut run = |pe: &mut dyn PeDevice, dst: u64| {
            use offsets::*;
            pe.mmio_write(SRC_ADDR_LO, 0);
            pe.mmio_write(SRC_LEN, chunk);
            pe.mmio_write(DST_ADDR_LO, dst as u32);
            pe.mmio_write(DST_ADDR_HI, (dst >> 32) as u32);
            pe.mmio_write(DST_CAPACITY, chunk);
            pe.mmio_write(STAGE_BASE + STAGE_FIELD, 2); // weight lane
            pe.mmio_write(STAGE_BASE + STAGE_OP, gt);
            pe.mmio_write(STAGE_BASE + STAGE_VAL_LO, 50);
            pe.mmio_write(START, 1);
            pe.execute(&mut mem)
        };
        let rg = run(&mut gen, 0x40000);
        let rb = run(&mut base, 0x80000);

        assert_eq!(rg.tuples_in, rb.tuples_in);
        assert_eq!(rg.tuples_out, rb.tuples_out);
        assert_eq!(rg.result_bytes, rb.result_bytes);
        // ... but the baseline causes more write traffic (full block).
        assert_eq!(rb.bytes_written, chunk);
        assert!(rg.bytes_written < rb.bytes_written);
    }

    #[test]
    fn baseline_rejects_multi_stage_configs() {
        let src = "
            /* @autogen define parser R with input = T, output = T, stages = 2 */
            typedef struct { uint32_t v; } T;
        ";
        let cfg = elaborate(&parse(src).unwrap(), "R").unwrap();
        assert!(PeSim::baseline(cfg).is_err());
    }

    #[test]
    fn baseline_rejects_custom_operators() {
        let src = "
            /* @autogen define parser R with input = T, output = T,
               operators = { eq, magic } */
            typedef struct { uint32_t v; } T;
        ";
        let m = parse(src).unwrap();
        let cfg = elaborate_with_custom_ops(&m, "R", &["magic"]).unwrap();
        assert!(PeSim::baseline(cfg).is_err());
    }

    #[test]
    fn baseline_name_is_tagged() {
        let cfg = elaborate(&parse(REFS).unwrap(), "RefPe").unwrap();
        let base = PeSim::baseline(cfg).unwrap();
        assert_eq!(base.config().name, "RefPe_baseline");
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
    fn counters_accumulate_across_blocks() {
        let mut pe = make_pe(POINTS, "P");
        let mut mem = VecMem::new(1 << 16);
        let len = write_points(&mut mem, 0, &[(1, 2, 3), (4, 5, 6)]);
        for _ in 0..3 {
            let _ = run(&mut pe, &mut mem, 0, len, 0x8000, 4096, &[]);
        }
        assert_eq!(pe.perf().tuples_in, 6);
    }

    // ------------------------------------------------------------------
    // The byte-moving loop the two planes replaced, kept as the reference
    // they are checked against: every byte through a `VecDeque`, memory
    // touched beat by beat, each filter run when the tuple reaches it.

    fn reference_run_block(pe: &mut PeSim, mem: &mut dyn MemBus) -> BlockResult {
        const BYTE_BUF: usize = super::BYTE_BUF as usize;
        let in_tuple = pe.processor.in_tuple_bytes();
        let out_tuple = pe.processor.out_tuple_bytes();
        let stage_programs: Vec<FilterProgram> =
            pe.regs.rules().map(|rule| pe.processor.compile(&[rule], &pe.ops)).collect();
        let stages = pe.cfg.stages as usize;
        // Aggregation Unit configuration: active only if the op is valid,
        // the hardware supports it, and the lane exists.
        let mut agg = pe.regs.aggregate().and_then(|(code, lane)| {
            ndp_ir::AggOp::from_code(code)
                .filter(|op| pe.cfg.supports_aggregate(*op))
                .and_then(|op| AggAccumulator::new(&pe.processor, op, lane))
        });

        // Flexible units honour SRC_LEN and DST_CAPACITY, fixed units
        // move whole chunks both ways.
        let (chunk, (src, src_len, dst, capacity)) = (pe.cfg.chunk_bytes, pe.regs.job());
        let (src_len, capacity) =
            if pe.flexible { (src_len.min(chunk), capacity) } else { (chunk, chunk) };

        // Unit state. The word-side staging buffers must hold at least
        // one whole tuple plus a beat, or wide-tuple pipelines would
        // stall forever waiting for a complete tuple to assemble.
        let in_buf_cap = BYTE_BUF.max(in_tuple + 8);
        let mut load_remaining = u64::from(src_len);
        let mut load_addr = src;
        let mut in_bytes: VecDeque<u8> = VecDeque::with_capacity(in_buf_cap);
        // Parsed tuples are carried as packed byte vectors: the oracle's
        // byte-level semantics apply directly and stage hand-off is a move.
        let mut parsed: VecDeque<Vec<u8>> = VecDeque::with_capacity(FIFO_TUPLES);
        let mut stage_q: Vec<VecDeque<Vec<u8>>> =
            (0..stages).map(|_| VecDeque::with_capacity(FIFO_TUPLES)).collect();
        let mut transformed: VecDeque<Vec<u8>> = VecDeque::with_capacity(FIFO_TUPLES);
        let mut out_bytes: VecDeque<u8> = VecDeque::with_capacity(BYTE_BUF);
        let mut store_addr = dst;
        let mut capacity_left = u64::from(capacity);

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
        pe.regs.start_pending = false;
        pe.regs.finish(&res, agg.map(|acc| acc.value()));
        res
    }

    /// One PE of the differential grid: a Fig. 8 tuple (all-`u32`, or half
    /// of it behind a 4-byte string prefix) behind a Fig. 9 filter chain,
    /// on 8 KiB chunks so a fixed-block run stays cheap. The output is the
    /// input tuple, or `out_lanes` `u32` lanes mapped from an 8-byte input:
    /// a Store Unit that needs more beats per tuple than the Load Unit is
    /// the bottleneck, so back-pressure reaches every FIFO and the Load
    /// Unit, and a 12-byte output ends blocks on a partial store beat.
    #[derive(Debug, Clone, Copy)]
    struct GridPe {
        bits: u32,
        half: bool,
        stages: u32,
        aggregate: bool,
        flexible: bool,
        out_lanes: u32,
    }

    const GRID_CHUNK: u32 = 8192;
    const GRID_DST: u64 = 0x4000;

    impl GridPe {
        fn all() -> Vec<GridPe> {
            let mut pes = Vec::new();
            for bits in [64, 128, 256, 512, 1024, 2048] {
                for half in [false, true] {
                    for stages in 1..=8 {
                        for aggregate in [false, true] {
                            for flexible in [true, false] {
                                let out_lanes = 0;
                                let pe =
                                    GridPe { bits, half, stages, aggregate, flexible, out_lanes };
                                pes.push(pe);
                            }
                        }
                    }
                }
            }
            // The widening axis: 8 B -> 12 B, 16 B and 32 B.
            for out_lanes in [3, 4, 8] {
                for stages in [1, 8] {
                    for flexible in [true, false] {
                        let (bits, half, aggregate) = (64, false, false);
                        pes.push(GridPe { bits, half, stages, aggregate, flexible, out_lanes });
                    }
                }
            }
            pes
        }

        /// Result capacity that holds a whole chunk's output twice over.
        fn ample(&self) -> u32 {
            GRID_CHUNK * self.out_lanes.max(2)
        }

        /// Source chunk at 0, result region at [`GRID_DST`] with room for
        /// the ample capacity.
        fn mem_size(&self) -> usize {
            GRID_DST as usize + self.ample() as usize
        }

        fn config(&self) -> PeConfig {
            let words = if self.half { self.bits / 64 - 1 } else { self.bits / 32 };
            let mut fields: String = (0..words).map(|i| format!("uint32_t f{i}; ")).collect();
            if self.half {
                fields += &format!("/* @string(prefix = 4) */ uint8_t s[{}];", self.bits / 16 + 4);
            }
            let aggregate = if self.aggregate { ", aggregate = { sum }" } else { "" };
            // Output lane k copies input lane k mod `words`.
            let lanes = self.out_lanes;
            let (output, mapping, out_fields) = if lanes == 0 {
                ("T", String::new(), String::new())
            } else {
                let pairs: Vec<String> =
                    (0..lanes).map(|k| format!("output.o{k} = input.f{}", k % words)).collect();
                let out_fields: String = (0..lanes).map(|k| format!("uint32_t o{k}; ")).collect();
                ("O", format!(", mapping = {{ {} }}", pairs.join(", ")), out_fields)
            };
            let mut src = format!(
                "/* @autogen define parser F with chunksize = {}, input = T, output = {output},
                    stages = {}{aggregate}{mapping} */
                 typedef struct {{ {fields} }} T;",
                GRID_CHUNK / 1024,
                self.stages
            );
            if lanes > 0 {
                src += &format!(" typedef struct {{ {out_fields} }} O;");
            }
            let cfg = elaborate(&parse(&src).unwrap(), "F").unwrap();
            assert_eq!(cfg.input.tuple_bytes(), u64::from(self.bits / 8));
            if lanes > 0 {
                assert_eq!(cfg.output.tuple_bytes(), u64::from(4 * lanes));
            }
            cfg
        }

        /// A PE of this shape, summing lane 0 if it aggregates.
        fn build(&self, cfg: &PeConfig) -> PeSim {
            let mut pe = PeSim::with_flexibility(cfg.clone(), self.flexible);
            let fc = offsets::filter_counter(cfg.stages);
            pe.mmio_write(fc + agg_offsets::AGG_OP, ndp_ir::AggOp::Sum.code());
            pe.mmio_write(fc + agg_offsets::AGG_FIELD, 0);
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
    /// tuple, nothing} x capacity {ample, 100 B, 4 KiB}. Every lane is a
    /// uniformly random `u32`, so `lt` against a fraction of 2^32 sets a
    /// stage's pass rate; a fixed-block PE ignores SRC_LEN and
    /// DST_CAPACITY and gets one length and one capacity.
    fn grid_jobs(cfg: &PeConfig, shape: &GridPe) -> Vec<GridJob> {
        let flexible = shape.flexible;
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
        let capacities = [shape.ample(), 100, 4096];
        let n = if flexible { usize::MAX } else { 1 };
        let mut jobs = Vec::new();
        for rules in &selectivities {
            for &len in lens.iter().take(n) {
                for &capacity in capacities.iter().take(n) {
                    jobs.push(GridJob { rules: rules.clone(), len, capacity });
                }
            }
        }
        jobs
    }

    /// Run one job on `pe` and, through the byte-moving loop, on its twin
    /// `reference`, each over its own copy of `image`: everything
    /// observable (result, register file with its counters, memory) must
    /// agree. Returns the result and the memory afterwards.
    fn assert_equals_reference(
        pe: &mut PeSim,
        reference: &mut PeSim,
        image: &[u8],
        (src, len): (u64, u32),
        (dst, cap): (u64, u32),
        rules: &[(u32, u32, u64)],
        at: &str,
    ) -> (BlockResult, VecMem) {
        let mut mem = VecMem::from_bytes(image);
        let mut reference_mem = VecMem::from_bytes(image);
        configure(pe, src, len, dst, cap, rules);
        configure(reference, src, len, dst, cap, rules);
        let got = pe.execute(&mut mem);
        assert_eq!(got, reference_run_block(reference, &mut reference_mem), "{at}");
        assert_eq!(pe.regs, reference.regs, "{at}");
        assert!(mem.image() == reference_mem.image(), "{at}: memory images differ");
        (got, mem)
    }

    #[test]
    fn two_planes_equal_the_byte_moving_loop_on_the_grid() {
        let mut cells = 0;
        // Stall cycles summed over the grid: only the widening shapes
        // make any, and the blocking terms are checked only where they do.
        let (mut in_stall, mut out_stall) = (0, 0);
        for (i, shape) in GridPe::all().iter().enumerate() {
            let cfg = shape.config();
            // One PE pair per shape: the counters are cumulative and the
            // scratch buffers are reused, so both are compared as well.
            let (mut pe, mut reference) = (shape.build(&cfg), shape.build(&cfg));
            let mut image = vec![0u8; shape.mem_size()];
            SplitMix64::new(0x6772_6964 + i as u64).fill_bytes(&mut image);
            for job in grid_jobs(&cfg, shape) {
                let (src, dst) = ((0, job.len), (GRID_DST, job.capacity));
                let at = format!("{shape:?} {job:?}");
                assert_equals_reference(&mut pe, &mut reference, &image, src, dst, &job.rules, &at);
                cells += 1;
            }
            in_stall += pe.perf().in_stall;
            out_stall += pe.perf().out_stall;
        }
        assert_eq!(cells, 12_672, "configurations");
        assert!(in_stall > 0 && out_stall > 0, "no back-pressure: {in_stall} / {out_stall}");
    }

    #[test]
    fn odd_widths_and_capacities_equal_the_byte_moving_loop() {
        // The grid's tuples are whole beats. Here tuples of 1 to 31 bytes
        // narrow, keep or widen by a random mapping, under capacities
        // that end inside a beat, so the Store Unit's partial beats, its
        // drops and sub-beat output tuples are checked as well.
        let mut rng = SplitMix64::new(0x6f64_6473);
        for case in 0..200 {
            let ins: Vec<&str> = (0..1 + rng.gen_usize(6))
                .map(|_| ["uint8_t", "uint16_t", "uint32_t"][rng.gen_usize(3)])
                .collect();
            let outs: Vec<usize> =
                (0..1 + rng.gen_usize(9)).map(|_| rng.gen_usize(ins.len())).collect();
            let in_fields: String =
                ins.iter().enumerate().map(|(i, t)| format!("{t} f{i}; ")).collect();
            let out_fields: String =
                outs.iter().enumerate().map(|(k, &i)| format!("{} o{k}; ", ins[i])).collect();
            let mapping: Vec<String> =
                outs.iter().enumerate().map(|(k, i)| format!("output.o{k} = input.f{i}")).collect();
            let stages = 1 + rng.gen_u32(8);
            let src = format!(
                "/* @autogen define parser F with chunksize = 8, input = T, output = O,
                    stages = {stages}, mapping = {{ {} }} */
                 typedef struct {{ {in_fields} }} T; typedef struct {{ {out_fields} }} O;",
                mapping.join(", ")
            );
            let cfg = elaborate(&parse(&src).unwrap(), "F").unwrap();
            let flexible = rng.gen_bool(0.8);
            let (mut pe, mut reference) = (
                PeSim::with_flexibility(cfg.clone(), flexible),
                PeSim::with_flexibility(cfg.clone(), flexible),
            );
            let mut image = vec![0u8; 0x1_4000];
            rng.fill_bytes(&mut image);
            let lt = cfg.op_code("lt").unwrap();
            for _ in 0..4 {
                let len = rng.gen_u32(GRID_CHUNK + 1);
                let capacity = [0, 1, 5, 13, 100, 1003, 0x1_0000][rng.gen_usize(7)];
                // A bound of random magnitude against lanes of 8 to 32
                // bits: some stages pass everything, some almost nothing.
                let rules: Vec<(u32, u32, u64)> = (0..stages)
                    .map(|s| {
                        let bits = rng.gen_u32(32);
                        (s % cfg.input.lanes, lt, rng.gen_u64(2 << bits))
                    })
                    .collect();
                let at = format!("case {case}: {src} len {len} capacity {capacity} {rules:?}");
                let (src, dst) = ((0, len), (GRID_DST, capacity));
                assert_equals_reference(&mut pe, &mut reference, &image, src, dst, &rules, &at);
            }
        }
    }

    #[test]
    fn results_written_over_the_source_trail_the_load_pointer() {
        // `dst == src` with output tuples no wider than input tuples is
        // the one aliasing the streaming hardware supports: a result byte
        // lands on a source byte the Load Unit has already passed. A
        // projection (12 -> 8 bytes) and an identity, both half-selective.
        let wide = GridPe {
            bits: 256,
            half: false,
            stages: 2,
            aggregate: false,
            flexible: true,
            out_lanes: 0,
        };
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
            &image.image(),
            (0, len),
            (0x8000, 4096),
            &[],
            "stages = 0",
        );
        assert_eq!((res.tuples_in, res.tuples_out, res.result_bytes), (3, 0, 24));
        assert_eq!(&mem.image()[0x8000..0x8008], &[2, 0, 0, 0, 3, 0, 0, 0]);
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
        for shape in GridPe::all().iter().filter(|s| !s.aggregate && s.out_lanes == 0) {
            let cfg = shape.config();
            let mut pe = shape.build(&cfg);
            let mut chunk = vec![0u8; GRID_CHUNK as usize];
            SplitMix64::new(0x656e_7665).fill_bytes(&mut chunk);
            let mut mem = VecMem::new(shape.mem_size());
            mem.write_bytes(0, &chunk);
            for job in grid_jobs(&cfg, shape).iter().filter(|j| j.len >= 1000) {
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
        // for 149). Fixed-block PEs store a whole chunk whatever the
        // capacity, so the estimate is never long (the envelope starts at
        // 0); the cycle model pads the block *after* the stream has
        // drained, the estimate overlaps the two, so it is up to half
        // short (64-bit, nothing passes: 1053 for 2074) — the closed-form
        // estimate has to settle which is right.
        let percent = |class: usize| {
            let [low, high] = &envelope[class];
            [format!("{:+.1} %", 100.0 * low.0), format!("{:+.1} %", 100.0 * high.0)]
        };
        assert_eq!(percent(1), ["-2.9 %", "+8.1 %"], "flexible: {:#?}", envelope[1]);
        assert_eq!(percent(0), ["-49.2 %", "+0.0 %"], "fixed-block: {:#?}", envelope[0]);
    }
}
