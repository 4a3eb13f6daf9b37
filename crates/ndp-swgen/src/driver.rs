//! The Rust twin of the generated C interface.
//!
//! The generated header is the register protocol; this module replays
//! it. [`PeDriver`] runs a job the way firmware built on the header does
//! — `set_filter` per rule and `set_nop` per unused stage,
//! `set_aggregate`, `filter_sync`, `read_aggregate` — against any
//! [`PeDevice`], and counts every access ([`IoStats`]). The platform
//! simulator turns those counts into PS↔PL configuration time, which is
//! what makes the GET operation *not* profit from hardware in Fig. 7(a).
//! [`job_io`] counts the same protocol without a device.
//!
//! `crates/core/tests/c_headers.rs` runs the compiled header against the
//! PE model and checks that each generated-profile launch, cold and warm,
//! makes the twin's accesses in the twin's order, the header's `STATUS`
//! polls aside: the model finishes a block at once, so the twin polls
//! nothing, and the timing model does not price the polls. The
//! [`DriverProfile::Baseline`] protocol and [`PeInvoke::Keyed`] launches
//! have no C side; [`job_io`] alone counts them.
//!
//! The [`DriverProfile`] distinguishes the generated firmware protocol
//! (flexible lengths, 64-bit reference values, result-size readback) from
//! the leaner fixed-function protocol of \[1\].

use ndp_ir::AggOp;
use ndp_pe::oracle::FilterRule;
use ndp_pe::regs::{agg_offsets, offsets};
use ndp_pe::{BlockResult, MemBus, Mmio, PeDevice};

/// Which firmware register protocol to speak.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriverProfile {
    /// This work: writes SRC_LEN, DST_CAPACITY and 64-bit reference
    /// values; reads back RESULT_BYTES (partial blocks have variable
    /// result sizes).
    Generated,
    /// \[1\]: fixed 32 KiB blocks — no length/capacity configuration, only
    /// 32-bit reference values, result size derived from the counter.
    Baseline,
}

/// One filtering job: a source block, a destination buffer, and the
/// predicate chain. `[dst, dst + capacity)` must not cover source bytes
/// the PE has yet to read (see [`PeDevice::execute`]); `dst == src` is
/// fine when output tuples are no wider than input tuples.
#[derive(Debug, Clone)]
pub struct FilterJob {
    pub src: u64,
    pub len: u32,
    pub dst: u64,
    pub capacity: u32,
    pub rules: Vec<FilterRule>,
    /// Optional aggregation `(op, lane)` computed over the passing
    /// tuples (requires a PE generated with `aggregate = {...}`).
    pub aggregate: Option<(AggOp, u32)>,
}

/// Register-access counters (inputs to the platform timing model).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    pub reg_writes: u64,
    pub reg_reads: u64,
}

/// How a launch configures the PE: the three register protocols the
/// platform timing model prices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeInvoke {
    /// First block of an op: the configuration cache is forgotten (as
    /// after a device reset), so everything is rewritten.
    Cold,
    /// Steady state: a configuration (rules and aggregate) identical to
    /// the last one is skipped; addresses, lengths and START are
    /// rewritten.
    Warm,
    /// A later key of a batched invocation. The datapath was configured
    /// by the batch's first key; the PL-side key-list walker re-points
    /// the descriptor registers itself — stage-0 reference value plus the
    /// source/destination window — and reads the result registers back,
    /// at fabric speed, charged to the driver's `walker_io`. Per-key
    /// result sizes ride the result stream, so the ARM's job-path cost
    /// collapses to the START strobe.
    Keyed,
}

/// Who performs a register access. Only the ARM's accesses cross the
/// PS↔PL bridge the platform timing model prices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum By {
    Arm,
    /// The PL-side key-list walker.
    Walker,
}

/// The register protocol of one PE: applied to a device when there is
/// one, and counted per [`By`] either way.
struct Port<'a> {
    pe: Option<&'a mut dyn Mmio>,
    profile: DriverProfile,
    stages: u32,
    io: [IoStats; 2],
}

impl<'a> Port<'a> {
    fn new(profile: DriverProfile, stages: u32, pe: Option<&'a mut dyn Mmio>) -> Self {
        Self { pe, profile, stages, io: Default::default() }
    }

    fn write(&mut self, by: By, off: u32, val: u32) {
        if let Some(pe) = self.pe.as_deref_mut() {
            pe.mmio_write(off, val);
        }
        self.io[by as usize].reg_writes += 1;
    }

    fn read(&mut self, by: By, off: u32) -> u32 {
        self.io[by as usize].reg_reads += 1;
        self.pe.as_deref_mut().map_or(0, |pe| pe.mmio_read(off))
    }

    /// Offset of `FILTER_COUNTER`, the base of the aggregation and
    /// performance-counter windows.
    fn filter_counter(&self) -> u32 {
        offsets::filter_counter(self.stages)
    }

    /// One launch of a job with `rules` rules, in the header's order: the
    /// stages a `Cold` launch configures (all of them, then the
    /// Aggregation Unit when `agg`) or a `Keyed` one (stage 0); the
    /// descriptor (`filter_async`'s writes); `START`. The walker performs
    /// a keyed launch but for its `START`. Values are `job`'s; a count has
    /// no job and writes zeros.
    fn launch(&mut self, rules: usize, agg: bool, job: Option<&FilterJob>, invoke: PeInvoke) {
        let by = if invoke == PeInvoke::Keyed { By::Walker } else { By::Arm };
        let generated = self.profile == DriverProfile::Generated;
        let configured = match invoke {
            PeInvoke::Cold => rules.max(self.stages as usize),
            PeInvoke::Keyed => rules.min(1),
            PeInvoke::Warm => 0,
        };
        for s in 0..configured {
            let group = offsets::stage(s as u32);
            if s >= rules {
                // An unused stage passes everything (nop).
                self.write(by, group + offsets::STAGE_OP, 0);
                continue;
            }
            let r = job.and_then(|j| j.rules.get(s));
            let (lane, op, value) = r.map_or((0, 0, 0), |r| (r.lane, r.op_code, r.value));
            self.write(by, group + offsets::STAGE_FIELD, lane);
            self.write(by, group + offsets::STAGE_OP, op);
            self.write(by, group + offsets::STAGE_VAL_LO, value as u32);
            if generated {
                self.write(by, group + offsets::STAGE_VAL_HI, (value >> 32) as u32);
            }
        }
        if agg && invoke == PeInvoke::Cold {
            let (op, lane) = job.and_then(|j| j.aggregate).map_or((0, 0), |(op, l)| (op.code(), l));
            let fc = self.filter_counter();
            self.write(by, fc + agg_offsets::AGG_FIELD, lane);
            self.write(by, fc + agg_offsets::AGG_OP, op);
        }
        let (src, len, dst, cap) = job.map_or((0, 0, 0, 0), |j| (j.src, j.len, j.dst, j.capacity));
        self.write(by, offsets::SRC_ADDR_LO, src as u32);
        self.write(by, offsets::SRC_ADDR_HI, (src >> 32) as u32);
        if generated {
            self.write(by, offsets::SRC_LEN, len);
        }
        self.write(by, offsets::DST_ADDR_LO, dst as u32);
        self.write(by, offsets::DST_ADDR_HI, (dst >> 32) as u32);
        if generated {
            self.write(by, offsets::DST_CAPACITY, cap);
        }
        self.write(By::Arm, offsets::START, 1);
    }

    /// The readback after the PE has run, by the walker after a keyed
    /// launch, in the header's order: `filter_sync`'s result size and
    /// pass count, then `read_aggregate`'s accumulator when `agg`.
    /// Returns `(aggregate, result bytes, tuples out)`; the protocol of
    /// \[1\] derives the result size from the pass counter (fixed-size
    /// tuples) instead.
    fn readback(&mut self, agg: bool, invoke: PeInvoke) -> (Option<u64>, Option<u32>, u32) {
        let by = if invoke == PeInvoke::Keyed { By::Walker } else { By::Arm };
        let fc = self.filter_counter();
        let (bytes, tuples_out) = match self.profile {
            DriverProfile::Generated => {
                (Some(self.read(by, offsets::RESULT_BYTES)), self.read(by, offsets::TUPLES_OUT))
            }
            DriverProfile::Baseline => (None, self.read(by, fc)),
        };
        let aggregate = agg.then(|| {
            let lo = u64::from(self.read(by, fc + agg_offsets::AGG_RESULT_LO));
            lo | u64::from(self.read(by, fc + agg_offsets::AGG_RESULT_HI)) << 32
        });
        (aggregate, bytes, tuples_out)
    }
}

/// The ARM's register accesses for one job of `rules` rules, aggregating
/// or not, on a PE with `stages` filtering stages: what [`PeDriver`]
/// performs, counted without a device. `Warm` means the configuration
/// (rules and aggregate) is cached.
pub fn job_io(
    profile: DriverProfile,
    stages: u32,
    rules: usize,
    invoke: PeInvoke,
    aggregate: bool,
) -> IoStats {
    let mut port = Port::new(profile, stages, None);
    port.launch(rules, aggregate, None, invoke);
    port.readback(aggregate, invoke);
    port.io[By::Arm as usize]
}

/// Result of a completed job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JobResult {
    /// The PE-level execution statistics.
    pub block: BlockResult,
    /// Result bytes as reported through the register interface.
    pub result_bytes: u32,
    /// Tuples that passed, as reported through the register interface.
    pub tuples_out: u32,
    /// Aggregation accumulator (None if no aggregate was requested).
    pub aggregate: Option<u64>,
    /// Register accesses this job cost (configuration + readback).
    pub io: IoStats,
}

/// Driver for one PE instance.
pub struct PeDriver<P: PeDevice> {
    pe: P,
    profile: DriverProfile,
    /// Lifetime register-access counters.
    pub(crate) total_io: IoStats,
    /// Register accesses performed by the PL-side key-list walker during
    /// batched (keyed) invocations. The walker re-points the descriptor
    /// registers itself, PL→PL at fabric speed, so this traffic never
    /// crosses the PS↔PL bridge the timing model prices — it is tracked
    /// here, apart from the ARM job path in [`total_io`](Self::total_io).
    pub(crate) walker_io: IoStats,
    /// The job of the last configuration; its rules and aggregate are
    /// what the PE holds (dirty-tracking: reconfiguring identical ones is
    /// skipped, like firmware that caches its last configuration).
    last: Option<FilterJob>,
}

impl<P: PeDevice> PeDriver<P> {
    /// Wrap a PE device.
    pub fn new(pe: P, profile: DriverProfile) -> Self {
        Self {
            pe,
            profile,
            total_io: IoStats::default(),
            walker_io: IoStats::default(),
            last: None,
        }
    }

    /// Access the wrapped device.
    pub fn device(&mut self) -> &mut P {
        &mut self.pe
    }

    /// Synchronous filtering (the header's `filter_sync`): a warm launch
    /// run to completion.
    pub fn filter_sync(&mut self, mem: &mut dyn MemBus, job: &FilterJob) -> JobResult {
        self.run(mem, job, PeInvoke::Warm)
    }

    /// Configure the PE the way `invoke` says, write START, run the block
    /// and read the results back. In simulation the PE executes at once;
    /// on the device the header's `wait_until_done` polls STATUS here.
    /// The readback is billed to whoever performs it: the ARM job path,
    /// or the walker for a [`PeInvoke::Keyed`] launch.
    fn run(&mut self, mem: &mut dyn MemBus, job: &FilterJob, invoke: PeInvoke) -> JobResult {
        let (stages, rules) = (self.pe.stages(), job.rules.len());
        assert!(
            rules <= stages as usize,
            "job has {rules} rules but the PE provides {stages} stages"
        );
        let same = |l: &FilterJob| l.rules == job.rules && l.aggregate == job.aggregate;
        let cached = self.last.as_ref().is_some_and(same);
        let invoke = if invoke == PeInvoke::Warm && !cached { PeInvoke::Cold } else { invoke };
        match invoke {
            PeInvoke::Cold => self.last = Some(job.clone()),
            // Keep the cache coherent with what the walker leaves in the
            // registers, so a later launch dirty-tracks correctly.
            PeInvoke::Keyed => {
                let cached = self.last.as_mut().and_then(|l| l.rules.first_mut());
                if let (Some(cached), Some(r0)) = (cached, job.rules.first()) {
                    *cached = *r0;
                }
            }
            PeInvoke::Warm => {}
        }
        let aggregated = job.aggregate.is_some();
        let mut port = Port::new(self.profile, stages, Some(&mut self.pe));
        port.launch(rules, aggregated, Some(job), invoke);
        let launched = port.io;
        let block = self.pe.execute(mem);
        let mut port = Port { io: launched, ..Port::new(self.profile, stages, Some(&mut self.pe)) };
        let (aggregate, bytes, tuples_out) = port.readback(aggregated, invoke);
        let [io, walker] = port.io;
        self.walker_io.reg_writes += walker.reg_writes;
        self.walker_io.reg_reads += walker.reg_reads;
        self.total_io.reg_writes += io.reg_writes;
        self.total_io.reg_reads += io.reg_reads;
        let result_bytes = bytes.unwrap_or(block.result_bytes);
        JobResult { block, result_bytes, tuples_out, aggregate, io }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndp_ir::{elaborate, CmpOp};
    use ndp_pe::{PeSim, VecMem};
    use ndp_spec::parse;

    const REFS: &str = "
        /* @autogen define parser RefPe with input = Ref, output = Ref */
        typedef struct { uint64_t src; uint64_t dst; uint32_t weight; } Ref;
    ";

    fn ref_block(n: u64) -> Vec<u8> {
        let mut v = Vec::new();
        for i in 0..n {
            v.extend_from_slice(&i.to_le_bytes());
            v.extend_from_slice(&(i * 2).to_le_bytes());
            v.extend_from_slice(&((i % 100) as u32).to_le_bytes());
        }
        v
    }

    fn setup() -> (PeDriver<PeSim>, VecMem, u32) {
        let cfg = elaborate(&parse(REFS).unwrap(), "RefPe").unwrap();
        let eq_ge = cfg.op_code("ge").unwrap();
        let pe = PeSim::new(cfg);
        let mut mem = VecMem::new(1 << 20);
        let data = ref_block(500);
        mem.write_bytes(0, &data);
        (PeDriver::new(pe, DriverProfile::Generated), mem, eq_ge)
    }

    #[test]
    fn filter_sync_runs_and_reports() {
        let (mut drv, mut mem, ge) = setup();
        let job = FilterJob {
            src: 0,
            len: 500 * 20,
            dst: 0x40000,
            capacity: 1 << 18,
            rules: vec![FilterRule { lane: 2, op_code: ge, value: 50 }],
            aggregate: None,
        };
        let res = drv.filter_sync(&mut mem, &job);
        assert_eq!(res.block.tuples_in, 500);
        assert_eq!(res.tuples_out, 250); // weight = i % 100 >= 50
        assert_eq!(res.result_bytes, 250 * 20);
        assert_eq!(res.result_bytes, res.block.result_bytes);
    }

    #[test]
    fn generated_profile_register_counts_match_timing_model() {
        // Fig. 7(b)'s per-block tax is priced from these counts.
        let (mut drv, mut mem, ge) = setup();
        let job = FilterJob {
            src: 0,
            len: 100 * 20,
            dst: 0x40000,
            capacity: 1 << 18,
            rules: vec![FilterRule { lane: 2, op_code: ge, value: 50 }],
            aggregate: None,
        };
        let first = drv.filter_sync(&mut mem, &job);
        // First block: rules + addresses + start = 4 + 7 writes.
        assert_eq!(first.io.reg_writes, 11);
        assert_eq!(first.io.reg_reads, 2);
        // Steady state (same rules, next block): rules are cached, but
        // addresses, len, capacity and start are rewritten.
        let next = drv.filter_sync(&mut mem, &job);
        assert_eq!(next.io.reg_writes, 7);
        assert_eq!(next.io.reg_reads, 2);
    }

    #[test]
    fn baseline_profile_issues_fewer_register_accesses() {
        let cfg = elaborate(&parse(REFS).unwrap(), "RefPe").unwrap();
        let ge = cfg.op_code("ge").unwrap();
        let base = PeSim::baseline(cfg).unwrap();
        let mut drv = PeDriver::new(base, DriverProfile::Baseline);
        let mut mem = VecMem::new(1 << 20);
        let data = ref_block(1638); // ~one 32 KiB block of 20 B tuples
        mem.write_bytes(0, &data);
        let job = FilterJob {
            src: 0,
            len: 32768,
            dst: 0x40000,
            capacity: 1 << 18,
            rules: vec![FilterRule { lane: 2, op_code: ge, value: 50 }],
            aggregate: None,
        };
        let res = drv.filter_sync(&mut mem, &job);
        // 3 rule writes (no VAL_HI) + 4 addresses + start = 8 writes,
        // 1 counter read.
        assert_eq!(res.io.reg_writes, 8);
        assert_eq!(res.io.reg_reads, 1);
        // The protocol writes neither SRC_LEN nor DST_CAPACITY; the fixed
        // units load the whole chunk, store the 800 passing 20-byte
        // tuples (weight = i % 100 >= 50) and pad to a whole chunk.
        assert_eq!(res.tuples_out, 800);
        assert_eq!(res.result_bytes, 800 * 20);
        assert_eq!(res.block.bytes_written, 32768);
    }

    #[test]
    fn keyed_invocation_costs_one_strobe_and_matches_cold_results() {
        let (mut drv, mut mem, ge) = setup();
        let cold = FilterJob {
            src: 0,
            len: 500 * 20,
            dst: 0x40000,
            capacity: 1 << 18,
            rules: vec![FilterRule { lane: 2, op_code: ge, value: 50 }],
            aggregate: None,
        };
        // The batch's first key configures the datapath the normal way.
        let first = drv.filter_sync(&mut mem, &cold);
        assert_eq!(first.io.reg_writes, 11);
        // Subsequent keys: the walker re-points the descriptor; the ARM
        // pays exactly one write (the START strobe) and no read.
        let keyed = FilterJob {
            rules: vec![FilterRule { lane: 2, op_code: ge, value: 90 }],
            ..cold.clone()
        };
        let (walker_before, total_before) = (drv.walker_io, drv.total_io);
        let res = drv.run(&mut mem, &keyed, PeInvoke::Keyed);
        assert_eq!(res.io, IoStats { reg_writes: 1, reg_reads: 0 });
        // Register for register: the ARM job path grows by the strobe
        // alone; the walker wrote the stage-0 rule (4), the src/dst
        // window (4) and len/capacity (2), and read RESULT_BYTES +
        // TUPLES_OUT back.
        assert_eq!(drv.total_io.reg_writes - total_before.reg_writes, 1);
        assert_eq!(drv.total_io.reg_reads, total_before.reg_reads);
        assert_eq!(drv.walker_io.reg_writes - walker_before.reg_writes, 10);
        assert_eq!(drv.walker_io.reg_reads - walker_before.reg_reads, 2);
        // Results are byte-for-byte what a cold launch would compute.
        let mut check = PeDriver::new(
            PeSim::new(elaborate(&parse(REFS).unwrap(), "RefPe").unwrap()),
            DriverProfile::Generated,
        );
        let reference = check.filter_sync(&mut mem, &keyed);
        assert_eq!(res.tuples_out, reference.tuples_out);
        assert_eq!(res.result_bytes, reference.result_bytes);
        // The rule cache stayed coherent: relaunching the keyed rules
        // warm skips reconfiguration (steady-state 7 writes).
        let steady = drv.filter_sync(&mut mem, &keyed);
        assert_eq!(steady.io.reg_writes, 7, "keyed launch kept the configuration cache in sync");
    }

    /// `job_io` is what real launches count, over generated PEs of 1–4
    /// stages with and without an Aggregation Unit and the 1-stage
    /// baseline: every chain length, `Cold`, `Warm` and `Keyed` in
    /// sequence, aggregate off and, where the PE has the unit, on.
    #[test]
    fn job_io_is_what_every_launch_counts() {
        let spec = |stages: u32, agg: &str| {
            format!(
                "/* @autogen define parser P with input = Ref, output = Ref, \
                 stages = {stages}{agg} */
                 typedef struct {{ uint64_t src; uint64_t dst; uint32_t weight; }} Ref;"
            )
        };
        let pe = |stages, agg| elaborate(&parse(&spec(stages, agg)).unwrap(), "P").unwrap();
        let ge = pe(1, "").op_code("ge").unwrap();
        let mut devices: Vec<(DriverProfile, Box<dyn PeDevice>, bool)> = Vec::new();
        for stages in 1..=4 {
            devices.push((DriverProfile::Generated, Box::new(PeSim::new(pe(stages, ""))), false));
            let with_unit = PeSim::new(pe(stages, ", aggregate = { sum }"));
            devices.push((DriverProfile::Generated, Box::new(with_unit), true));
        }
        let baseline = PeSim::baseline(pe(1, "")).unwrap();
        devices.push((DriverProfile::Baseline, Box::new(baseline), false));
        let mut mem = VecMem::new(1 << 16);
        let job = |rules: usize, aggregate: bool| FilterJob {
            src: 0,
            len: 200,
            dst: 0x8000,
            capacity: 0x4000,
            rules: (0..rules as u64)
                .map(|v| FilterRule { lane: 2, op_code: ge, value: v })
                .collect(),
            aggregate: aggregate.then_some((AggOp::Sum, 2)),
        };
        for (profile, dev, has_unit) in devices {
            let stages = dev.stages();
            let mut drv = PeDriver::new(dev, profile);
            let aggregates: &[bool] = if has_unit { &[false, true] } else { &[false] };
            for rules in 1..=stages as usize {
                for &aggregate in aggregates {
                    for invoke in [PeInvoke::Cold, PeInvoke::Warm, PeInvoke::Keyed] {
                        assert_eq!(
                            drv.run(&mut mem, &job(rules, aggregate), invoke).io,
                            job_io(profile, stages, rules, invoke, aggregate),
                            "{profile:?} stages={stages} rules={rules} aggregate={aggregate} \
                             {invoke:?}"
                        );
                    }
                }
            }
        }
        // The Aggregation Unit's configuration is cached with the rules:
        // a warm aggregate launch rewrites no AGG_* register.
        let mut drv =
            PeDriver::new(PeSim::new(pe(1, ", aggregate = { sum }")), DriverProfile::Generated);
        let cold = drv.filter_sync(&mut mem, &job(1, true)).io;
        assert_eq!(cold, IoStats { reg_writes: 13, reg_reads: 4 });
        let warm = drv.filter_sync(&mut mem, &job(1, true)).io;
        assert_eq!(warm, IoStats { reg_writes: 7, reg_reads: 4 });
    }

    /// `job_io`'s every count, written out: the store charges these, so
    /// a protocol change that moves one fails here. One line per
    /// profile, launch, aggregate (`agg` or `-`) and stage count, then
    /// `writes/reads` for 0..=stages rules.
    #[test]
    fn job_io_is_pinned() {
        const PINNED: &str = "
            Generated Cold - 1: 8/2 11/2
            Generated Cold - 2: 9/2 12/2 15/2
            Generated Cold - 3: 10/2 13/2 16/2 19/2
            Generated Cold - 4: 11/2 14/2 17/2 20/2 23/2
            Generated Cold agg 1: 10/4 13/4
            Generated Cold agg 2: 11/4 14/4 17/4
            Generated Cold agg 3: 12/4 15/4 18/4 21/4
            Generated Cold agg 4: 13/4 16/4 19/4 22/4 25/4
            Generated Warm - 1: 7/2 7/2
            Generated Warm - 2: 7/2 7/2 7/2
            Generated Warm - 3: 7/2 7/2 7/2 7/2
            Generated Warm - 4: 7/2 7/2 7/2 7/2 7/2
            Generated Warm agg 1: 7/4 7/4
            Generated Warm agg 2: 7/4 7/4 7/4
            Generated Warm agg 3: 7/4 7/4 7/4 7/4
            Generated Warm agg 4: 7/4 7/4 7/4 7/4 7/4
            Generated Keyed - 1: 1/0 1/0
            Generated Keyed - 2: 1/0 1/0 1/0
            Generated Keyed - 3: 1/0 1/0 1/0 1/0
            Generated Keyed - 4: 1/0 1/0 1/0 1/0 1/0
            Generated Keyed agg 1: 1/0 1/0
            Generated Keyed agg 2: 1/0 1/0 1/0
            Generated Keyed agg 3: 1/0 1/0 1/0 1/0
            Generated Keyed agg 4: 1/0 1/0 1/0 1/0 1/0
            Baseline Cold - 1: 6/1 8/1
            Baseline Cold - 2: 7/1 9/1 11/1
            Baseline Cold - 3: 8/1 10/1 12/1 14/1
            Baseline Cold - 4: 9/1 11/1 13/1 15/1 17/1
            Baseline Cold agg 1: 8/3 10/3
            Baseline Cold agg 2: 9/3 11/3 13/3
            Baseline Cold agg 3: 10/3 12/3 14/3 16/3
            Baseline Cold agg 4: 11/3 13/3 15/3 17/3 19/3
            Baseline Warm - 1: 5/1 5/1
            Baseline Warm - 2: 5/1 5/1 5/1
            Baseline Warm - 3: 5/1 5/1 5/1 5/1
            Baseline Warm - 4: 5/1 5/1 5/1 5/1 5/1
            Baseline Warm agg 1: 5/3 5/3
            Baseline Warm agg 2: 5/3 5/3 5/3
            Baseline Warm agg 3: 5/3 5/3 5/3 5/3
            Baseline Warm agg 4: 5/3 5/3 5/3 5/3 5/3
            Baseline Keyed - 1: 1/0 1/0
            Baseline Keyed - 2: 1/0 1/0 1/0
            Baseline Keyed - 3: 1/0 1/0 1/0 1/0
            Baseline Keyed - 4: 1/0 1/0 1/0 1/0 1/0
            Baseline Keyed agg 1: 1/0 1/0
            Baseline Keyed agg 2: 1/0 1/0 1/0
            Baseline Keyed agg 3: 1/0 1/0 1/0 1/0
            Baseline Keyed agg 4: 1/0 1/0 1/0 1/0 1/0
        ";
        let mut got = String::new();
        for profile in [DriverProfile::Generated, DriverProfile::Baseline] {
            for invoke in [PeInvoke::Cold, PeInvoke::Warm, PeInvoke::Keyed] {
                for agg in [false, true] {
                    for stages in 1..=4u32 {
                        let flag = if agg { "agg" } else { "-" };
                        got += &format!("{profile:?} {invoke:?} {flag} {stages}:");
                        for rules in 0..=stages as usize {
                            let io = job_io(profile, stages, rules, invoke, agg);
                            got += &format!(" {}/{}", io.reg_writes, io.reg_reads);
                        }
                        got += "\n";
                    }
                }
            }
        }
        let want: Vec<&str> = PINNED.lines().map(str::trim).filter(|l| !l.is_empty()).collect();
        assert_eq!(got.lines().collect::<Vec<_>>(), want);
    }

    #[test]
    fn rule_cache_invalidation_rewrites_rules() {
        let (mut drv, mut mem, ge) = setup();
        let job = FilterJob {
            src: 0,
            len: 100 * 20,
            dst: 0x40000,
            capacity: 1 << 18,
            rules: vec![FilterRule { lane: 2, op_code: ge, value: 50 }],
            aggregate: None,
        };
        let _ = drv.filter_sync(&mut mem, &job);
        let res = drv.run(&mut mem, &job, PeInvoke::Cold);
        assert_eq!(res.io.reg_writes, 11, "invalidation forces full reconfiguration");
    }

    #[test]
    fn changing_rules_reconfigures_and_nops_unused_stages() {
        let src = "
            /* @autogen define parser R with input = T, output = T, stages = 2 */
            typedef struct { uint32_t v, w; } T;
        ";
        let cfg = elaborate(&parse(src).unwrap(), "R").unwrap();
        let lt = cfg.op_code("lt").unwrap();
        let pe = PeSim::new(cfg);
        let mut drv = PeDriver::new(pe, DriverProfile::Generated);
        let mut mem = VecMem::new(1 << 16);
        let mut data = Vec::new();
        for i in 0u32..10 {
            data.extend_from_slice(&i.to_le_bytes());
            data.extend_from_slice(&(100 - i).to_le_bytes());
        }
        mem.write_bytes(0, &data);
        // One rule on a two-stage PE: stage 1 must be set to nop.
        let job = FilterJob {
            src: 0,
            len: data.len() as u32,
            dst: 0x8000,
            capacity: 4096,
            rules: vec![FilterRule { lane: 0, op_code: lt, value: 5 }],
            aggregate: None,
        };
        let res = drv.filter_sync(&mut mem, &job);
        assert_eq!(res.tuples_out, 5);
        // Rewriting with a different predicate takes effect.
        let job2 = FilterJob { rules: vec![FilterRule { lane: 0, op_code: lt, value: 2 }], ..job };
        let res2 = drv.filter_sync(&mut mem, &job2);
        assert_eq!(res2.tuples_out, 2);
    }

    #[test]
    #[should_panic(expected = "rules")]
    fn too_many_rules_panics() {
        let (mut drv, mut mem, ge) = setup();
        let job = FilterJob {
            src: 0,
            len: 20,
            dst: 0x40000,
            capacity: 4096,
            rules: vec![
                FilterRule { lane: 0, op_code: ge, value: 0 },
                FilterRule { lane: 1, op_code: ge, value: 0 },
            ],
            aggregate: None,
        };
        let _ = drv.filter_sync(&mut mem, &job);
    }

    #[test]
    fn retargeted_job_reuses_the_descriptor_and_rule_cache() {
        let (mut drv, mut mem, ge) = setup();
        // Second block of refs further up in memory.
        let second = ref_block(300);
        mem.write_bytes(0x20000, &second);
        let mut job = FilterJob {
            src: 0,
            len: 500 * 20,
            dst: 0x40000,
            capacity: 1 << 18,
            rules: vec![FilterRule { lane: 2, op_code: ge, value: 50 }],
            aggregate: None,
        };
        let first = drv.filter_sync(&mut mem, &job);
        assert_eq!(first.block.tuples_in, 500);
        // Stream the next block through the same descriptor.
        (job.src, job.len) = (0x20000, 300 * 20);
        let next = drv.filter_sync(&mut mem, &job);
        assert_eq!(next.block.tuples_in, 300);
        assert_eq!(next.tuples_out, 150);
        // Rules were cached: only addresses/len/capacity/start rewritten.
        assert_eq!(next.io.reg_writes, 7);
    }

    #[test]
    fn nop_semantics_equal_cmp_nop() {
        // The driver's implicit nop for unused stages matches CmpOp::Nop.
        assert!(CmpOp::Nop.eval(ndp_spec::PrimTy::U32, 1, 2));
    }
}
