//! The hybrid NDP execution facade.
//!
//! "For both operations the execution is implemented in a hybrid way,
//! where the software executes a very general algorithm and exploits the
//! hardware whenever datablocks have to be filtered or transformed"
//! (paper, Sec. V). This module holds the *state* of that firmware
//! algorithm — [`TableExec`], the per-table executor with its PE
//! timing servers and health counters — and nothing else.
//!
//! The execution loops themselves live in [`crate::engine`], driven by
//! an explicit [`crate::plan::PhysicalPlan`] lowered from the table's
//! [`TableExec::caps`]. `Backend::Software` runs the shared byte-level
//! oracle on the ARM core; `Backend::Hardware` stages blocks in DRAM
//! and dispatches them to the PEs, priced by the register protocol of
//! the *generated driver* ([`ndp_swgen::job_io`]).
//!
//! # Resilience
//!
//! The executor runs *below* the host's error-handling stack, so the
//! device firmware owns one fixed fault policy (its constants live
//! beside `engine::backoff_before_retry`):
//!
//! * **retry with backoff** — a transient page-read failure is retried
//!   3 times, backing off 50, 100 and 200 µs of *simulated* time;
//!   exhaustion surfaces as the typed
//!   [`NkvError::RetriesExhausted`](crate::error::NkvError::RetriesExhausted);
//! * **watchdog + HW→SW degradation** — if a PE never raises DONE, the
//!   firmware's DONE poll times out after 1 ms, the PE is marked failed
//!   for the rest of the session, and the block is re-processed by the
//!   ARM software oracle (results stay identical, only time is lost);
//! * **health accounting** — every retry, watchdog trip and fallback is
//!   counted in [`HealthCounters`], surfaced device-wide through
//!   the `health` block of `NkvDb::device_stats`.

use crate::engine::ParallelScanStats;
use crate::plan::PlanCaps;
use cosmos_sim::{Server, SimNs};
use ndp_pe::oracle::{BlockProcessor, OpTable};
use ndp_swgen::DriverProfile;

/// Simulated-time and traffic report of one operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimReport {
    /// Simulated duration of the operation in nanoseconds.
    pub sim_ns: SimNs,
    /// Data blocks read from flash.
    pub blocks: u64,
    /// Bytes of table data scanned.
    pub bytes_scanned: u64,
    /// Result payload bytes.
    pub result_bytes: u64,
    /// Tuples inspected / passed.
    pub tuples_in: u64,
    pub tuples_out: u64,
    /// PE control-register traffic.
    pub reg_writes: u64,
    pub reg_reads: u64,
    /// Newer blocks a scan searched for shadowing versions: a bloom hit
    /// is confirmed in the staged block itself, and each block is
    /// searched (and charged one ARM pass) at most once per op. No flash
    /// read is issued.
    pub shadow_confirm_reads: u64,
}

/// Error/degradation counters of one table's executor (monotonic since
/// table creation; see `NkvDb::device_stats` for the device-wide view).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthCounters {
    /// Block/page reads that were retried after a transient failure.
    pub read_retries: u64,
    /// Simulated time spent in retry backoff.
    pub retry_backoff_ns: SimNs,
    /// Reads abandoned after exhausting the retry budget.
    pub reads_failed: u64,
    /// Watchdog timeouts on a PE DONE poll (one per hang observed).
    pub watchdog_trips: u64,
    /// Blocks processed by the ARM oracle because no healthy PE was
    /// available (includes the block of each watchdog trip).
    pub sw_fallback_blocks: u64,
}

/// Execution state for one table's PEs.
pub(crate) struct TableExec {
    /// The table's precompiled functional semantics.
    pub(crate) processor: BlockProcessor,
    /// Operator dispatch table.
    pub ops: OpTable,
    /// Register encodings of the operators the store itself issues
    /// (GET's key equality, RANGE_SCAN's `ge`/`lt` chain), resolved
    /// from the table's own `PeConfig` at creation: encodings follow the
    /// specification's declaration order, so they are per-PE, and an
    /// operator the set omits is `None`.
    pub(crate) eq_code: Option<u32>,
    pub(crate) ge_code: Option<u32>,
    pub(crate) lt_code: Option<u32>,
    /// Per-PE timing servers, one per attached PE (a PE can only process
    /// one block at a time; blocks round-robin over them).
    pub(crate) pe_servers: Vec<Server>,
    /// Register protocol in use.
    pub(crate) profile: DriverProfile,
    /// Filtering stages the PEs provide.
    pub stages: u32,
    /// Full-block payload size (whole records per 32 KiB block).
    pub(crate) full_block_payload: u32,
    /// Chunk (block) size in bytes.
    pub chunk_bytes: u32,
    /// Reconcile scan results newest-wins. Disabled for multi-record-key
    /// (duplicate-key) tables, where a key match in a newer component
    /// does not imply version shadowing.
    pub(crate) reconcile: bool,
    /// Aggregation reductions the attached PEs were generated with.
    pub aggregates: Vec<ndp_ir::AggOp>,
    /// Error/degradation counters since table creation.
    pub health: HealthCounters,
    /// PEs declared hung by the watchdog (skipped until
    /// [`TableExec::reset_failed_pes`]).
    pub(crate) pe_failed: Vec<bool>,
    /// Parallel PE job streams a hardware scan fans out to (0 = the
    /// serial dispatch, one stream; see `crate::plan`).
    pub parallel_pes: usize,
    /// Statistics of the most recent parallel scan phase (None after a
    /// serial scan).
    pub(crate) last_parallel_scan: Option<ParallelScanStats>,
}

impl TableExec {
    /// Bring watchdog-failed PEs back into rotation (a device reset /
    /// PL reconfiguration in the real system).
    pub(crate) fn reset_failed_pes(&mut self) {
        self.pe_failed.iter_mut().for_each(|f| *f = false);
    }

    /// Number of PEs currently marked failed.
    pub(crate) fn failed_pes(&self) -> usize {
        self.pe_failed.iter().filter(|&&f| f).count()
    }

    /// Planner-visible capabilities of this table's executor.
    pub(crate) fn caps(&self) -> PlanCaps {
        PlanCaps {
            stages: self.stages,
            lanes: self.processor.lanes(),
            n_pes: self.pe_servers.len(),
            parallel_pes: self.parallel_pes,
            aggregates: self.aggregates.clone(),
            identity_transform: self.processor.identity_transform(),
            key_lane: self.processor.int_lane_at(0, 0, 8),
            eq_code: self.eq_code,
            ge_code: self.ge_code,
            lt_code: self.lt_code,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::engine::{run_get, run_scan};
    use crate::error::NkvResult;
    use crate::lsm::{LsmConfig, LsmTree};
    use crate::placement::PageAllocator;
    use crate::plan::{Backend, LogicalOp, PhysicalPlan};
    use cosmos_sim::dram::DramClient;
    use cosmos_sim::{timing, CosmosConfig, CosmosPlatform};
    use ndp_ir::{elaborate, PeConfig};
    use ndp_pe::oracle::FilterRule;
    use ndp_spec::parse;
    use ndp_swgen::{job_io, PeInvoke};
    use ndp_workload::spec::{ref_lanes, PAPER_REF_SPEC, REF_PE};
    use ndp_workload::{PubGraphConfig, Ref, RefGen};

    fn ref_pe() -> PeConfig {
        elaborate(&parse(PAPER_REF_SPEC).unwrap(), REF_PE).unwrap()
    }

    pub(crate) fn make_exec(n_pes: usize, baseline: bool) -> TableExec {
        let cfg = ref_pe();
        let processor = BlockProcessor::new(&cfg);
        let ops = OpTable::from_config(&cfg);
        let full_block_payload = (cfg.chunk_bytes / 20) * 20;
        TableExec {
            processor,
            ops,
            eq_code: cfg.op_code("eq"),
            ge_code: cfg.op_code("ge"),
            lt_code: cfg.op_code("lt"),
            pe_servers: vec![Server::new(); n_pes],
            profile: if baseline { DriverProfile::Baseline } else { DriverProfile::Generated },
            stages: cfg.stages,
            full_block_payload,
            chunk_bytes: cfg.chunk_bytes,
            reconcile: true,
            aggregates: cfg.aggregates.clone(),
            health: HealthCounters::default(),
            pe_failed: vec![false; n_pes],
            parallel_pes: 0,
            last_parallel_scan: None,
        }
    }

    /// Load refs with unique `src` fields (the record key must be its
    /// first 8 bytes); returns the tree and the load-completion time.
    fn loaded_lsm(
        platform: &mut CosmosPlatform,
        alloc: &mut PageAllocator,
        n_refs: u64,
    ) -> (LsmTree, u64) {
        let mut lsm = LsmTree::new("refs", 20, LsmConfig::default());
        let cfg = PubGraphConfig { papers: n_refs / 10 + 1, refs: n_refs, seed: 11 };
        let mut buf = Vec::new();
        let mut done = 0u64;
        for (i, mut r) in RefGen::new(cfg).enumerate() {
            r.src = i as u64 + 1; // unique key in the record's first field
            buf.clear();
            r.encode_into(&mut buf);
            lsm.put(r.src, buf.clone());
            if lsm.should_flush() {
                done = done.max(lsm.flush(&mut platform.flash, alloc, 0).unwrap());
            }
        }
        done = done.max(lsm.flush(&mut platform.flash, alloc, 0).unwrap());
        (lsm, done)
    }

    /// `year >= year`, with `ge` resolved from the executor's own set.
    fn scan_year_rules(exec: &TableExec, year: u64) -> Vec<FilterRule> {
        let ge = exec.ge_code.expect("the reference PE carries the standard set");
        vec![FilterRule { lane: ref_lanes::YEAR, op_code: ge, value: year }]
    }

    /// Lower a SCAN against the executor's own capabilities and run it —
    /// the production path (`NkvDb::execute_at`) minus the table lookup.
    fn scan(
        platform: &mut CosmosPlatform,
        lsm: &LsmTree,
        exec: &mut TableExec,
        rules: &[FilterRule],
        backend: Backend,
        now: SimNs,
    ) -> NkvResult<(Vec<u8>, SimReport)> {
        let op = LogicalOp::Scan { rules: rules.to_vec() };
        let plan = PhysicalPlan::lower(&op, backend, &exec.caps(), "refs")?;
        let s = run_scan(platform, lsm, exec, &plan, now)?.into_scan()?;
        Ok((s.records, s.report))
    }

    /// Lower a GET the same way and run it.
    fn get(
        platform: &mut CosmosPlatform,
        lsm: &LsmTree,
        exec: &mut TableExec,
        key: u64,
        backend: Backend,
        now: SimNs,
    ) -> NkvResult<(Option<Vec<u8>>, SimReport)> {
        let plan = PhysicalPlan::lower(&LogicalOp::Get { key }, backend, &exec.caps(), "refs")?;
        run_get(platform, lsm, exec, &plan, now)
    }

    #[test]
    fn sw_and_hw_scans_return_identical_results() {
        let mut platform = CosmosPlatform::new(CosmosConfig::default());
        let mut alloc = PageAllocator::new(platform.flash.config());
        let (lsm, t0) = loaded_lsm(&mut platform, &mut alloc, 5_000);
        let mut exec = make_exec(2, false);
        let rules = scan_year_rules(&exec, 2000);

        let (sw, rep_sw) =
            scan(&mut platform, &lsm, &mut exec, &rules, Backend::Software, t0).unwrap();
        let (hw, rep_hw) =
            scan(&mut platform, &lsm, &mut exec, &rules, Backend::Hardware, t0 + rep_sw.sim_ns)
                .unwrap();
        assert_eq!(sw, hw);
        assert!(!sw.is_empty());
        assert_eq!(rep_sw.tuples_out, rep_hw.tuples_out);
        // Every result record satisfies the predicate.
        for rec in sw.chunks_exact(20) {
            assert!(Ref::decode(rec).year >= 2000);
        }
    }

    #[test]
    fn hw_scan_is_faster_than_sw_scan() {
        let mut platform = CosmosPlatform::new(CosmosConfig::default());
        let mut alloc = PageAllocator::new(platform.flash.config());
        let (lsm, t0) = loaded_lsm(&mut platform, &mut alloc, 20_000);
        let mut exec = make_exec(4, false);
        let rules = scan_year_rules(&exec, 1990);

        let mut p1 = CosmosPlatform::new(CosmosConfig::default());
        p1.flash = platform.flash.clone();
        let (_, sw) = scan(&mut p1, &lsm, &mut exec, &rules, Backend::Software, t0).unwrap();
        let mut p2 = CosmosPlatform::new(CosmosConfig::default());
        p2.flash = platform.flash.clone();
        let (_, hw) = scan(&mut p2, &lsm, &mut exec, &rules, Backend::Hardware, t0).unwrap();
        assert!(hw.sim_ns < sw.sim_ns, "HW {} ns should beat SW {} ns", hw.sim_ns, sw.sim_ns);
    }

    /// ARM register-access time of a warm one-rule block job under
    /// `profile`: Fig. 7(b)'s per-block tax.
    fn block_tax_ns(profile: DriverProfile) -> u64 {
        let io = job_io(profile, 1, 1, PeInvoke::Warm, false);
        timing::cfg_overhead_ns(io.reg_writes, io.reg_reads)
    }

    /// The derivation chain of `cosmos_sim::timing`'s module docs: the
    /// dataset volume at the calibrated flash bandwidth plus the per-block
    /// tax the register protocol counts must land on the paper's 5.512 s
    /// (\[1\]) and 5.530 s (ours) anchors.
    #[test]
    fn fig7b_anchor_derivation() {
        let bytes: f64 = 3_775_161.0 * 80.0 + 40_128_663.0 * 20.0;
        assert_eq!(bytes, 1_104_586_140.0);
        let blocks = (bytes / 32_768.0).ceil();
        assert_eq!(blocks, 33_710.0);

        let flash_s = bytes / timing::FLASH_AGGREGATE_BW;
        let base_s = flash_s + blocks * block_tax_ns(DriverProfile::Baseline) as f64 * 1e-9;
        let ours_s = flash_s + blocks * block_tax_ns(DriverProfile::Generated) as f64 * 1e-9;
        assert!((base_s - 5.512).abs() < 0.005, "base anchor drifted: {base_s}");
        assert!((ours_s - 5.530).abs() < 0.005, "ours anchor drifted: {ours_s}");
        // The paper's headline delta: ~0.018 s.
        assert!(((ours_s - base_s) - 0.018).abs() < 0.001);
    }

    #[test]
    fn config_overhead_counts() {
        // [1]: the four address halves and START; the pass counter. Ours
        // adds SRC_LEN and DST_CAPACITY, and reads RESULT_BYTES and
        // TUPLES_OUT: 2 writes + 1 read = 534 ns more per block.
        assert_eq!(block_tax_ns(DriverProfile::Baseline), 5 * 150 + 234);
        assert_eq!(block_tax_ns(DriverProfile::Generated), 7 * 150 + 2 * 234);
    }

    #[test]
    fn baseline_hw_matches_generated_results_with_more_write_traffic() {
        let mut platform = CosmosPlatform::new(CosmosConfig::default());
        let mut alloc = PageAllocator::new(platform.flash.config());
        let (lsm, t0) = loaded_lsm(&mut platform, &mut alloc, 8_000);
        let rules = vec![FilterRule { lane: ref_lanes::YEAR, op_code: 4, value: 2000 }];

        let mut ours = make_exec(2, false);
        let mut base = make_exec(2, true);
        let mut p1 = CosmosPlatform::new(CosmosConfig::default());
        p1.flash = platform.flash.clone();
        let (r1, _) = scan(&mut p1, &lsm, &mut ours, &rules, Backend::Hardware, t0).unwrap();
        let pe_store_ours = p1.dram.traffic_of(DramClient::PeStore);
        let mut p2 = CosmosPlatform::new(CosmosConfig::default());
        p2.flash = platform.flash.clone();
        let (r2, _) = scan(&mut p2, &lsm, &mut base, &rules, Backend::Hardware, t0).unwrap();
        let pe_store_base = p2.dram.traffic_of(DramClient::PeStore);

        assert_eq!(r1, r2);
        assert!(
            pe_store_base > pe_store_ours,
            "fixed 32 KiB write-back must cause more DRAM traffic \
             ({pe_store_base} vs {pe_store_ours})"
        );
    }

    #[test]
    fn scan_reconciles_shadowed_versions() {
        let mut platform = CosmosPlatform::new(CosmosConfig::default());
        let mut alloc = PageAllocator::new(platform.flash.config());
        let mut lsm = LsmTree::new("refs", 20, LsmConfig::default());
        // Old version of key 100 matches the predicate... (the record's
        // first field IS the key, per the nKV record model)
        let old = Ref { src: 100, dst: 1, year: 2010 };
        let mut buf = Vec::new();
        old.encode_into(&mut buf);
        lsm.put(old.src, buf.clone());
        lsm.flush(&mut platform.flash, &mut alloc, 0).unwrap();
        // ... the newer version does NOT match.
        let newer = Ref { src: 100, dst: 1, year: 1960 };
        buf.clear();
        newer.encode_into(&mut buf);
        lsm.put(newer.src, buf.clone());
        lsm.flush(&mut platform.flash, &mut alloc, 0).unwrap();
        // And key 200's newest version matches.
        let live = Ref { src: 200, dst: 2, year: 2015 };
        buf.clear();
        live.encode_into(&mut buf);
        lsm.put(live.src, buf.clone());
        lsm.flush(&mut platform.flash, &mut alloc, 0).unwrap();

        let mut exec = make_exec(1, false);
        let rules = vec![FilterRule { lane: ref_lanes::YEAR, op_code: 4, value: 2000 }];
        let (res, rep) =
            scan(&mut platform, &lsm, &mut exec, &rules, Backend::Software, 0).unwrap();
        // Only key 200's record: key 100's matching version is shadowed.
        assert_eq!(res.len(), 20);
        assert_eq!(Ref::decode(&res).year, 2015);
        assert_eq!(rep.tuples_out, 1);
        // Key 100's bloom hit is confirmed in the one newer block it can
        // be in; key 200 is in the newest SST and needs no search.
        assert_eq!(rep.shadow_confirm_reads, 1, "one newer block searched");
    }

    #[test]
    fn scan_includes_memtable_and_respects_its_tombstones() {
        let mut platform = CosmosPlatform::new(CosmosConfig::default());
        let mut alloc = PageAllocator::new(platform.flash.config());
        let mut lsm = LsmTree::new("refs", 20, LsmConfig::default());
        let mut buf = Vec::new();
        Ref { src: 1, dst: 9, year: 2005 }.encode_into(&mut buf);
        lsm.put(1, buf.clone());
        lsm.flush(&mut platform.flash, &mut alloc, 0).unwrap();
        // Unflushed matching record in the memtable...
        buf.clear();
        Ref { src: 2, dst: 9, year: 2012 }.encode_into(&mut buf);
        lsm.put(2, buf.clone());
        // ... and delete the flushed one.
        lsm.delete(1);

        let mut exec = make_exec(1, false);
        let rules = vec![FilterRule { lane: ref_lanes::YEAR, op_code: 4, value: 2000 }];
        let (res, _) = scan(&mut platform, &lsm, &mut exec, &rules, Backend::Software, 0).unwrap();
        assert_eq!(res.len(), 20);
        assert_eq!(Ref::decode(&res).year, 2012);
    }

    #[test]
    fn get_finds_and_misses_in_both_modes() {
        let mut platform = CosmosPlatform::new(CosmosConfig::default());
        let mut alloc = PageAllocator::new(platform.flash.config());
        let (lsm, t0) = loaded_lsm(&mut platform, &mut alloc, 5_000);
        let mut exec = make_exec(1, false);
        // Pick an existing key from the data.
        let sst = &lsm.all_ssts()[0];
        let key = sst.blocks[0].first_key;
        let (sw, rep_sw) = get(&mut platform, &lsm, &mut exec, key, Backend::Software, t0).unwrap();
        let (hw, rep_hw) =
            get(&mut platform, &lsm, &mut exec, key, Backend::Hardware, t0 + rep_sw.sim_ns)
                .unwrap();
        assert!(sw.is_some());
        assert_eq!(sw, hw);
        assert!(rep_sw.sim_ns > 0 && rep_hw.sim_ns > 0);

        let (miss, _) =
            get(&mut platform, &lsm, &mut exec, u64::MAX - 1, Backend::Software, t0).unwrap();
        assert_eq!(miss, None);
    }

    #[test]
    fn get_hw_does_not_profit_over_sw() {
        // Fig. 7(a): configuration overhead eats the PE's advantage.
        let mut platform = CosmosPlatform::new(CosmosConfig::default());
        let mut alloc = PageAllocator::new(platform.flash.config());
        let (lsm, t0) = loaded_lsm(&mut platform, &mut alloc, 20_000);
        let sst = &lsm.all_ssts()[0];
        let key = sst.blocks[1].first_key;

        let mut exec = make_exec(1, false);
        let mut p1 = CosmosPlatform::new(CosmosConfig::default());
        p1.flash = platform.flash.clone();
        let (_, sw) = get(&mut p1, &lsm, &mut exec, key, Backend::Software, t0).unwrap();
        let mut p2 = CosmosPlatform::new(CosmosConfig::default());
        p2.flash = platform.flash.clone();
        let (_, hw) = get(&mut p2, &lsm, &mut exec, key, Backend::Hardware, t0).unwrap();
        let ratio = hw.sim_ns as f64 / sw.sim_ns as f64;
        assert!(
            (0.8..1.5).contains(&ratio),
            "GET HW/SW ratio {ratio:.2} should be near 1 (no real benefit)"
        );
    }

    #[test]
    fn firmware_era_adds_op_overhead() {
        let mut loaded = CosmosPlatform::new(CosmosConfig::default());
        let mut alloc = PageAllocator::new(loaded.flash.config());
        let (lsm, t0) = loaded_lsm(&mut loaded, &mut alloc, 5_000);
        let mut original = CosmosPlatform::new(CosmosConfig {
            firmware: cosmos_sim::FirmwareEra::Original,
            ..CosmosConfig::default()
        });
        original.flash = loaded.flash.clone();
        let mut updated = CosmosPlatform::new(CosmosConfig::default());
        updated.flash = loaded.flash.clone();
        let sst = &lsm.all_ssts()[0];
        let key = sst.blocks[0].first_key;
        let mut exec = make_exec(1, false);
        let (_, rep_orig) =
            get(&mut original, &lsm, &mut exec, key, Backend::Software, t0).unwrap();
        let (_, rep_upd) = get(&mut updated, &lsm, &mut exec, key, Backend::Software, t0).unwrap();
        assert_eq!(
            rep_upd.sim_ns - rep_orig.sim_ns,
            timing::FIRMWARE_OP_OVERHEAD_NS,
            "updated firmware charges exactly the per-op overhead"
        );
    }

    #[test]
    fn parallel_scan_matches_serial_scan_exactly() {
        let mut platform = CosmosPlatform::new(CosmosConfig::default());
        let mut alloc = PageAllocator::new(platform.flash.config());
        let (lsm, t0) = loaded_lsm(&mut platform, &mut alloc, 20_000);
        let rules = vec![FilterRule { lane: ref_lanes::YEAR, op_code: 4, value: 1990 }];

        let mut serial = make_exec(4, false);
        let mut p1 = CosmosPlatform::new(CosmosConfig::default());
        p1.flash = platform.flash.clone();
        let (r_serial, rep_serial) =
            scan(&mut p1, &lsm, &mut serial, &rules, Backend::Hardware, t0).unwrap();
        assert!(serial.last_parallel_scan.is_none());

        let mut par = make_exec(4, false);
        par.parallel_pes = 4;
        let mut p2 = CosmosPlatform::new(CosmosConfig::default());
        p2.flash = platform.flash.clone();
        let (r_par, rep_par) =
            scan(&mut p2, &lsm, &mut par, &rules, Backend::Hardware, t0).unwrap();

        assert_eq!(r_serial, r_par, "merge order must reproduce the serial result bytes");
        assert_eq!(rep_serial.tuples_out, rep_par.tuples_out);
        assert_eq!(rep_serial.blocks, rep_par.blocks);
        let stats = par.last_parallel_scan.as_ref().expect("parallel stats recorded");
        assert_eq!(stats.workers, 4);
        assert_eq!(stats.blocks_per_worker.iter().sum::<u64>(), rep_par.blocks);
    }

    #[test]
    fn parallel_scan_with_more_workers_is_faster() {
        let mut platform = CosmosPlatform::new(CosmosConfig::default());
        let mut alloc = PageAllocator::new(platform.flash.config());
        let (lsm, t0) = loaded_lsm(&mut platform, &mut alloc, 20_000);
        let rules = vec![FilterRule { lane: ref_lanes::YEAR, op_code: 4, value: 1990 }];

        let mut one = make_exec(4, false);
        one.parallel_pes = 1;
        let mut p1 = CosmosPlatform::new(CosmosConfig::default());
        p1.flash = platform.flash.clone();
        let (r1, rep1) = scan(&mut p1, &lsm, &mut one, &rules, Backend::Hardware, t0).unwrap();

        let mut four = make_exec(4, false);
        four.parallel_pes = 4;
        let mut p4 = CosmosPlatform::new(CosmosConfig::default());
        p4.flash = platform.flash.clone();
        let (r4, rep4) = scan(&mut p4, &lsm, &mut four, &rules, Backend::Hardware, t0).unwrap();

        assert_eq!(r1, r4);
        assert!(
            (rep4.sim_ns as f64) < 0.8 * rep1.sim_ns as f64,
            "4 streams ({} ns) should clearly beat 1 stream ({} ns)",
            rep4.sim_ns,
            rep1.sim_ns
        );
    }
}
