//! The Rust twin of the generated C interface.
//!
//! [`PeDriver`] performs exactly the register-level protocol that the
//! generated header's `filter_sync`/`filter_async`/`wait_until_done`
//! functions perform on the device, against any [`PeDevice`]. It also
//! counts every register access ([`IoStats`]) — the platform simulator
//! turns those counts into PS↔PL configuration time, which is what makes
//! the GET operation *not* profit from hardware in Fig. 7(a).
//!
//! The [`DriverProfile`] distinguishes the generated firmware protocol
//! (flexible lengths, 64-bit reference values, result-size readback) from
//! the leaner fixed-function protocol of \[1\].

use ndp_ir::AggOp;
use ndp_pe::oracle::FilterRule;
use ndp_pe::regs::{agg_offsets, offsets, perf_offsets};
use ndp_pe::{BlockResult, MemBus, PeDevice};

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

impl FilterJob {
    /// Point an existing job descriptor at a new source block, keeping
    /// rules/destination/capacity. Firmware reuses one descriptor per
    /// stream this way instead of rebuilding it per block, which is what
    /// keeps the driver's rule cache warm across a scan.
    pub fn retarget(&mut self, src: u64, len: u32) {
        self.src = src;
        self.len = len;
    }
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
    /// First block of an op: the rule cache is forgotten (as after a
    /// device reset), so everything is rewritten.
    Cold,
    /// Steady state: rules identical to the last configuration are
    /// skipped; addresses, lengths and START are rewritten.
    Warm,
    /// A later key of a batched invocation. The datapath was configured
    /// by the batch's first key; the PL-side key-list walker re-points
    /// the descriptor registers itself — stage-0 reference value plus the
    /// source/destination window — and reads the result registers back,
    /// at fabric speed, charged to [`PeDriver::walker_io`]. Per-key
    /// result sizes ride the result stream, so the ARM's job-path cost
    /// collapses to the START strobe
    /// (`timing::BATCH_KEY_CFG_WRITES == 1`, `BATCH_KEY_CFG_READS == 0`).
    Keyed,
}

/// An in-flight job started with [`PeDriver::filter_async`]. Consumed by
/// [`PeDriver::wait_until_done`]; carries the launch-time register-access
/// cost, so the completed [`JobResult`] accounts for the whole job, and
/// what the readback needs to know about the launch, so overlapping jobs
/// cannot mix it up.
#[derive(Debug)]
#[must_use = "a launched job must be completed"]
pub struct JobHandle {
    launch_io: IoStats,
    /// The walker, not the ARM, reads the result registers back.
    keyed: bool,
    /// The job requested an aggregate.
    aggregated: bool,
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

/// Snapshot of the PE's hardware performance counters (the Rust twin of
/// the header's `<pe>_perf_counters_t` + `<pe>_read_perf_counters`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PerfReadout {
    pub tuples_in: u32,
    pub tuples_out: u32,
    pub in_stall: u32,
    pub out_stall: u32,
    pub active: u32,
    pub idle: u32,
    pub load_beats: u32,
    pub store_beats: u32,
    /// Tuples dropped per filtering stage, index = stage.
    pub stage_drops: Vec<u32>,
}

/// Driver for one PE instance.
pub struct PeDriver<P: PeDevice> {
    pe: P,
    profile: DriverProfile,
    /// Lifetime register-access counters.
    pub total_io: IoStats,
    /// Register accesses spent on perf-counter readback/reset, tracked
    /// separately so observability never changes job-path configuration
    /// costs (the timing model's CFG_WRITES/READS constants).
    pub perf_io: IoStats,
    /// Register accesses performed by the PL-side key-list walker during
    /// batched (keyed) invocations. The walker re-points the descriptor
    /// registers itself, PL→PL at fabric speed, so this traffic never
    /// crosses the PS↔PL bridge the timing model prices — it is tracked
    /// here, apart from the ARM job path in [`total_io`](Self::total_io).
    pub walker_io: IoStats,
    /// Rules written during the last configuration (dirty-tracking:
    /// reconfiguring identical filter rules is skipped, like firmware
    /// that caches its last configuration).
    last_rules: Option<Vec<FilterRule>>,
}

impl<P: PeDevice> PeDriver<P> {
    /// Wrap a PE device.
    pub fn new(pe: P, profile: DriverProfile) -> Self {
        Self {
            pe,
            profile,
            total_io: IoStats::default(),
            perf_io: IoStats::default(),
            walker_io: IoStats::default(),
            last_rules: None,
        }
    }

    /// Access the wrapped device.
    pub fn device(&mut self) -> &mut P {
        &mut self.pe
    }

    /// Profile in use.
    pub fn profile(&self) -> DriverProfile {
        self.profile
    }

    fn write(&mut self, io: &mut IoStats, off: u32, val: u32) {
        self.pe.mmio_write(off, val);
        io.reg_writes += 1;
    }

    fn read(&mut self, io: &mut IoStats, off: u32) -> u32 {
        io.reg_reads += 1;
        self.pe.mmio_read(off)
    }

    /// Program one filter stage's field/operator/reference registers.
    fn write_rule(&mut self, io: &mut IoStats, stage: u32, r: &FilterRule) {
        let group = offsets::STAGE_BASE + stage * offsets::STAGE_STRIDE;
        self.write(io, group + offsets::STAGE_FIELD, r.lane);
        self.write(io, group + offsets::STAGE_OP, r.op_code);
        self.write(io, group + offsets::STAGE_VAL_LO, r.value as u32);
        if self.profile == DriverProfile::Generated {
            self.write(io, group + offsets::STAGE_VAL_HI, (r.value >> 32) as u32);
        }
    }

    /// Configure the filter stages (like the header's `set_filter`).
    fn configure_rules(&mut self, io: &mut IoStats, rules: &[FilterRule]) {
        assert!(
            rules.len() <= self.pe.stages() as usize,
            "job has {} rules but the PE provides {} stages",
            rules.len(),
            self.pe.stages()
        );
        if self.last_rules.as_deref() == Some(rules) {
            return; // unchanged configuration is not rewritten
        }
        for (s, r) in rules.iter().enumerate() {
            self.write_rule(io, s as u32, r);
        }
        // Unused stages pass everything (nop).
        for s in rules.len()..self.pe.stages() as usize {
            let group = offsets::STAGE_BASE + s as u32 * offsets::STAGE_STRIDE;
            self.write(io, group + offsets::STAGE_OP, 0);
        }
        self.last_rules = Some(rules.to_vec());
    }

    /// Launch a job asynchronously (the header's `filter_async`):
    /// configure the PE the way `invoke` says and write START.
    pub fn filter_async(&mut self, job: &FilterJob, invoke: PeInvoke) -> JobHandle {
        let keyed = invoke == PeInvoke::Keyed;
        // ARM job path, and the walker's PL→PL traffic (keyed only).
        let (mut io, mut wio) = (IoStats::default(), IoStats::default());
        if keyed {
            if let Some(r0) = job.rules.first() {
                self.write_rule(&mut wio, 0, r0);
                // Keep the rule cache coherent with what is now in the
                // registers, so a later launch dirty-tracks correctly.
                if let Some(cached) = self.last_rules.as_mut().and_then(|c| c.first_mut()) {
                    *cached = *r0;
                }
            }
        } else {
            if invoke == PeInvoke::Cold {
                self.last_rules = None;
            }
            self.configure_rules(&mut io, &job.rules);
        }
        let desc = if keyed { &mut wio } else { &mut io };
        self.write(desc, offsets::SRC_ADDR_LO, job.src as u32);
        self.write(desc, offsets::SRC_ADDR_HI, (job.src >> 32) as u32);
        self.write(desc, offsets::DST_ADDR_LO, job.dst as u32);
        self.write(desc, offsets::DST_ADDR_HI, (job.dst >> 32) as u32);
        if self.profile == DriverProfile::Generated {
            self.write(desc, offsets::SRC_LEN, job.len);
            self.write(desc, offsets::DST_CAPACITY, job.capacity);
        }
        if let Some((op, lane)) = job.aggregate {
            let fc = offsets::STAGE_BASE + self.pe.stages() * offsets::STAGE_STRIDE;
            self.write(desc, fc + agg_offsets::AGG_FIELD, lane);
            self.write(desc, fc + agg_offsets::AGG_OP, op.code());
        }
        self.write(&mut io, offsets::START, 1);
        self.walker_io.reg_writes += wio.reg_writes;
        JobHandle { launch_io: io, keyed, aggregated: job.aggregate.is_some() }
    }

    /// Complete a previously launched job (the header's
    /// `wait_until_done` plus result readback). In simulation the PE
    /// executes here; on the device this would poll STATUS. The readback
    /// is billed to whoever performs it: the ARM job path, or the walker
    /// for a [`PeInvoke::Keyed`] launch.
    pub fn wait_until_done(&mut self, mem: &mut dyn MemBus, handle: JobHandle) -> JobResult {
        let (mut io, mut wio) = (handle.launch_io, IoStats::default());
        let rb = if handle.keyed { &mut wio } else { &mut io };
        let block = self.pe.execute(mem);
        let fc = offsets::STAGE_BASE + self.pe.stages() * offsets::STAGE_STRIDE;
        let aggregate = if handle.aggregated {
            let lo = u64::from(self.read(rb, fc + agg_offsets::AGG_RESULT_LO));
            let hi = u64::from(self.read(rb, fc + agg_offsets::AGG_RESULT_HI));
            Some(lo | (hi << 32))
        } else {
            None
        };
        let (result_bytes, tuples_out) = match self.profile {
            DriverProfile::Generated => {
                let bytes = self.read(rb, offsets::RESULT_BYTES);
                (bytes, self.read(rb, offsets::TUPLES_OUT))
            }
            DriverProfile::Baseline => {
                // [1] derives the result size from the pass counter
                // (fixed-size tuples): one register read.
                let count = self.read(rb, fc);
                (block.result_bytes, count)
            }
        };
        self.walker_io.reg_reads += wio.reg_reads;
        self.total_io.reg_writes += io.reg_writes;
        self.total_io.reg_reads += io.reg_reads;
        JobResult { block, result_bytes, tuples_out, aggregate, io }
    }

    /// Synchronous filtering (the header's `filter_sync`): a warm launch
    /// and its completion in sequence.
    pub fn filter_sync(&mut self, mem: &mut dyn MemBus, job: &FilterJob) -> JobResult {
        let handle = self.filter_async(job, PeInvoke::Warm);
        self.wait_until_done(mem, handle)
    }

    /// Read the hardware performance counters (the header's
    /// `read_perf_counters`). Register accesses are charged to
    /// [`perf_io`](Self::perf_io), not the job path.
    pub fn read_perf_counters(&mut self) -> PerfReadout {
        let fc = offsets::STAGE_BASE + self.pe.stages() * offsets::STAGE_STRIDE;
        let mut io = IoStats::default();
        let rd = |drv: &mut Self, io: &mut IoStats, rel: u32| drv.read(io, fc + rel);
        let out = PerfReadout {
            tuples_in: rd(self, &mut io, perf_offsets::CNT_TUPLES_IN),
            tuples_out: rd(self, &mut io, perf_offsets::CNT_TUPLES_OUT),
            in_stall: rd(self, &mut io, perf_offsets::CNT_IN_STALL),
            out_stall: rd(self, &mut io, perf_offsets::CNT_OUT_STALL),
            active: rd(self, &mut io, perf_offsets::CNT_ACTIVE),
            idle: rd(self, &mut io, perf_offsets::CNT_IDLE),
            load_beats: rd(self, &mut io, perf_offsets::CNT_LOAD_BEATS),
            store_beats: rd(self, &mut io, perf_offsets::CNT_STORE_BEATS),
            stage_drops: (0..self.pe.stages())
                .map(|s| self.read(&mut io, fc + perf_offsets::CNT_STAGE_DROP_BASE + 4 * s))
                .collect(),
        };
        self.perf_io.reg_reads += io.reg_reads;
        self.perf_io.reg_writes += io.reg_writes;
        out
    }

    /// Clear the hardware performance counters (the header's
    /// `reset_perf_counters`: write-1-to-clear on CNT_CTRL).
    pub fn reset_perf_counters(&mut self) {
        let fc = offsets::STAGE_BASE + self.pe.stages() * offsets::STAGE_STRIDE;
        let mut io = IoStats::default();
        self.write(&mut io, fc + perf_offsets::CNT_CTRL, 1);
        self.perf_io.reg_writes += io.reg_writes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndp_ir::{elaborate, CmpOp};
    use ndp_pe::{BaselinePe, PeSim, VecMem};
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
        // The cosmos-sim timing constants assume 11 writes + 2 reads for
        // a steady-state single-stage block under the generated firmware.
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
        let base = BaselinePe::new(cfg).unwrap();
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
        // 1 counter read — matching cosmos-sim's BASE_CFG_* constants.
        assert_eq!(res.io.reg_writes, 8);
        assert_eq!(res.io.reg_reads, 1);
        assert!(res.tuples_out > 0);
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
        // pays exactly BATCH_KEY_CFG_WRITES = 1 / BATCH_KEY_CFG_READS = 0.
        let keyed = FilterJob {
            rules: vec![FilterRule { lane: 2, op_code: ge, value: 90 }],
            ..cold.clone()
        };
        let (walker_before, total_before) = (drv.walker_io, drv.total_io);
        let handle = drv.filter_async(&keyed, PeInvoke::Keyed);
        let res = drv.wait_until_done(&mut mem, handle);
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
        assert_eq!(steady.io.reg_writes, 7, "keyed launch kept last_rules in sync");
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
        let handle = drv.filter_async(&job, PeInvoke::Cold);
        let res = drv.wait_until_done(&mut mem, handle);
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
    fn perf_readback_matches_job_and_leaves_job_io_untouched() {
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
        let job_io = drv.total_io;
        let perf = drv.read_perf_counters();
        assert_eq!(perf.tuples_in, res.block.tuples_in);
        assert_eq!(perf.tuples_out, res.tuples_out);
        assert_eq!(perf.stage_drops, vec![res.block.tuples_in - res.tuples_out]);
        assert_eq!(perf.active + perf.idle, res.block.cycles as u32);
        // Observability cost is accounted separately from the job path.
        assert_eq!(drv.total_io, job_io);
        assert_eq!(drv.perf_io.reg_reads, 9);
        drv.reset_perf_counters();
        assert_eq!(drv.perf_io.reg_writes, 1);
        let cleared = drv.read_perf_counters();
        assert_eq!(cleared, PerfReadout { stage_drops: vec![0], ..PerfReadout::default() });
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
        job.retarget(0x20000, 300 * 20);
        let next = drv.filter_sync(&mut mem, &job);
        assert_eq!(next.block.tuples_in, 300);
        assert_eq!(next.tuples_out, 150);
        // Rules were cached: only addresses/len/capacity/start rewritten.
        assert_eq!(next.io.reg_writes, 7);
    }

    #[test]
    fn launch_complete_equals_filter_sync() {
        let (mut drv, mut mem, ge) = setup();
        let job = FilterJob {
            src: 0,
            len: 500 * 20,
            dst: 0x40000,
            capacity: 1 << 18,
            rules: vec![FilterRule { lane: 2, op_code: ge, value: 50 }],
            aggregate: None,
        };
        let handle = drv.filter_async(&job, PeInvoke::Warm);
        let res = drv.wait_until_done(&mut mem, handle);
        let (mut fresh, mut mem, _) = setup();
        assert_eq!(res, fresh.filter_sync(&mut mem, &job));
    }

    #[test]
    fn nop_semantics_equal_cmp_nop() {
        // The driver's implicit nop for unused stages matches CmpOp::Nop.
        assert!(CmpOp::Nop.eval(ndp_spec::PrimTy::U32, 1, 2));
    }
}
