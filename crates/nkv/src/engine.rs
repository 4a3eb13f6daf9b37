//! The plan-driven execution engine.
//!
//! Every backend of a [`crate::plan::PhysicalPlan`] — software,
//! hardware, hybrid, and the parallel-PE scan — runs through the three
//! entry points here: `run_scan` (filter scans and aggregates, which
//! are scans that fold), `run_get` and `run_batched_get`; `exec.rs`
//! holds only the per-table state they work on.
//!
//! The shared plumbing all of them need — retrying flash reads with
//! backoff, claiming a healthy PE under the watchdog/degradation
//! policy, dispatching one block job to a PE (ARM register
//! configuration + PE streaming + DRAM traffic), and falling back to
//! the ARM oracle when no PE is available — lives here exactly once.
//!
//! # Parallel scan
//!
//! A plan with `parallel_pes = n >= 1` splits a scan's block list into
//! `n` per-worker streams by flash-channel group (every block's pages
//! live on one channel; see `placement::worker_for_channel`). Each
//! worker owns one PE and one staging buffer and processes its stream
//! *strictly serially* — block `k+1` is issued only once block `k` is
//! consumed — so the streams model bounded per-worker staging rather
//! than the serial path's idealized issue-everything-at-start firmware
//! loop. The worker chains overlap in simulated time on the shared
//! timelines (flash controllers, DRAM port, ARM), which therefore run
//! in gap-aware backfill mode for the duration of the block phase
//! ([`cosmos_sim::CosmosPlatform::set_parallel_dispatch`]). Results
//! merge deterministically in global (component, block) order before
//! the shared reconciliation pass, so a parallel scan returns exactly
//! the serial plan's bytes.

use crate::error::{NkvError, NkvResult};
use crate::exec::{HealthCounters, ResilienceConfig, SimReport, TableExec};
use crate::lsm::LsmTree;
use crate::memtable::Entry;
use crate::placement::worker_for_channel;
use crate::plan::{Backend, PhysOp, PhysicalPlan, PlanOutcome};
use crate::sst::{read_block, search_block, BlockMeta, SstMeta};
use cosmos_sim::dram::DramClient;
use cosmos_sim::{timing, CosmosPlatform, FlashArray, SharedBytes, SimNs};
use ndp_pe::oracle::{AggAccumulator, FilterProgram, FilterRule};
use ndp_pe::pipeline::estimate_block_cycles;
use ndp_swgen::{job_io, DriverProfile, IoStats, PeInvoke};
use std::collections::{hash_map, HashMap};

/// Backoff charged before retry `attempt` (1-based):
/// `backoff_base_ns << (attempt - 1)`, shift capped so a hostile retry
/// budget cannot overflow. One definition shared by the block-read
/// retry loop below and the cluster router's per-shard retry wrapper.
pub(crate) fn backoff_before_retry(res: &ResilienceConfig, attempt: u32) -> SimNs {
    res.backoff_base_ns << attempt.saturating_sub(1).min(16)
}

/// Run `attempt_read` at increasing simulated times until it succeeds,
/// fails non-retryably, or exhausts the retry budget. Backoff before
/// retry `n` is `backoff_base_ns << (n - 1)` (capped shift); every
/// retry and the backoff time are accounted in `health`. Exhaustion
/// surfaces as [`NkvError::RetriesExhausted`] with the given identity.
pub(crate) fn retry_read<T>(
    res: &ResilienceConfig,
    health: &mut HealthCounters,
    sst_id: u64,
    block: usize,
    now: SimNs,
    mut attempt_read: impl FnMut(SimNs) -> NkvResult<T>,
) -> NkvResult<T> {
    let mut at = now;
    let mut attempt = 0u32;
    loop {
        match attempt_read(at) {
            Err(NkvError::Flash(e)) if e.is_retryable() => {
                attempt += 1;
                if attempt > res.max_read_retries {
                    health.reads_failed += 1;
                    return Err(NkvError::RetriesExhausted { sst_id, block, attempts: attempt });
                }
                health.read_retries += 1;
                let backoff = backoff_before_retry(res, attempt);
                health.retry_backoff_ns += backoff;
                at += backoff;
            }
            other => return other,
        }
    }
}

/// Retrying wrapper around [`read_block`]: transient failures back off
/// in simulated time and retry; budget exhaustion becomes the typed
/// [`NkvError::RetriesExhausted`]. Non-retryable errors pass through.
pub(crate) fn read_block_resilient(
    flash: &mut FlashArray,
    res: &ResilienceConfig,
    health: &mut HealthCounters,
    sst: &SstMeta,
    block_idx: usize,
    now: SimNs,
) -> NkvResult<(SimNs, SharedBytes)> {
    retry_read(res, health, sst.id, block_idx, now, |at| read_block(flash, sst, block_idx, at))
}

/// Retrying read of an SST's index page (same policy as data blocks;
/// the page content is already parsed into the metadata, only the flash
/// time matters). Returns the read-completion time and the page.
pub(crate) fn read_index_page_resilient(
    platform: &mut CosmosPlatform,
    res: &ResilienceConfig,
    health: &mut HealthCounters,
    sst_id: u64,
    page: cosmos_sim::PhysAddr,
    now: SimNs,
) -> NkvResult<(SimNs, SharedBytes)> {
    // `usize::MAX` marks the index page (not a data block) in the error.
    let flash = &mut platform.flash;
    retry_read(res, health, sst_id, usize::MAX, now, |at| {
        flash.read_page(page, at).map(|(done, p)| (done, p.clone())).map_err(NkvError::from)
    })
}

/// Cache-aware read of one SST data block into the PE's staging buffer.
/// On a device-DRAM block-cache hit the block bursts from DRAM over the
/// shared port — no flash traffic — and a `cache_hit` span is traced. On
/// a miss the resilient flash read runs, the flash DMA moves the block
/// into staging, and the block is admitted to the cache. With the cache
/// disabled (the default) this is the read + stage path bit for bit.
/// Returns the time the block is staged and its bytes, which the flash
/// pages, the cache and the caller share.
pub(crate) fn block_read(
    platform: &mut CosmosPlatform,
    exec: &mut TableExec,
    sst: &SstMeta,
    block_idx: usize,
    now: SimNs,
) -> NkvResult<(SimNs, SharedBytes)> {
    let hit = platform.cache_mut().and_then(|c| c.lookup(sst.id, block_idx)).cloned();
    if let Some(data) = hit {
        let ready = platform.dram.timed_transfer(DramClient::CacheHit, data.len() as u64, now);
        platform.trace_cache_hit(sst.id, block_idx as u64, data.len() as u64, now, ready - now);
        return Ok((ready, data));
    }
    let (read, data) = read_block_resilient(
        &mut platform.flash,
        &exec.resilience,
        &mut exec.health,
        sst,
        block_idx,
        now,
    )?;
    let staged = platform.dram.timed_transfer(DramClient::FlashDma, data.len() as u64, read);
    if let Some(c) = platform.cache_mut() {
        c.insert(sst.id, block_idx, data.clone());
    }
    Ok((staged, data))
}

/// Cache-aware read of an SST's index page, keyed
/// `(sst_id, INDEX_BLOCK)`. The page *content* already lives in the SST
/// metadata — only the timing and the cache-budget occupancy of one
/// flash page are modeled — so a hit is a page-sized DRAM burst and a
/// miss is the legacy resilient flash-page read plus admission of the
/// page read (shared with flash, not copied).
pub(crate) fn index_page_read(
    platform: &mut CosmosPlatform,
    exec: &mut TableExec,
    sst_id: u64,
    page: cosmos_sim::PhysAddr,
    now: SimNs,
) -> NkvResult<SimNs> {
    let bytes = u64::from(platform.flash.config().page_bytes);
    let hit =
        platform.cache_mut().is_some_and(|c| c.lookup(sst_id, cosmos_sim::INDEX_BLOCK).is_some());
    if hit {
        let done = platform.dram.timed_transfer(DramClient::CacheHit, bytes, now);
        platform.trace_cache_hit(sst_id, u64::MAX, bytes, now, done - now);
        return Ok(done);
    }
    let (done, page) =
        read_index_page_resilient(platform, &exec.resilience, &mut exec.health, sst_id, page, now)?;
    if let Some(c) = platform.cache_mut() {
        c.insert(sst_id, cosmos_sim::INDEX_BLOCK, page);
    }
    Ok(done)
}

/// Next non-failed PE in round-robin order, advancing `rr` past it;
/// `None` once every PE has been marked failed.
pub(crate) fn next_healthy_pe(failed: &[bool], n_pes: usize, rr: &mut usize) -> Option<usize> {
    let n = n_pes.max(1);
    for _ in 0..n {
        let d = *rr % n;
        *rr += 1;
        if !failed.get(d).copied().unwrap_or(false) {
            return Some(d);
        }
    }
    None
}

/// Where one block runs after the PE claim is resolved.
pub(crate) enum PeGrant {
    /// Dispatch to this PE index.
    Hw(usize),
    /// Process on the ARM; `hung` is set when a fresh watchdog trip led
    /// here (the caller charges `watchdog_ns` before resuming).
    Sw { hung: bool },
}

/// Claim `candidate` for one block job: roll the platform's hang fault,
/// account watchdog trips and software fallbacks, and decide where the
/// block runs. A hung PE is retired for the session; with
/// `hw_fallback_to_sw` disabled the hang fails the operation with
/// [`NkvError::PeTimeout`] instead of degrading. `count_fallback` is
/// false for blocks that were never HW-eligible (the fixed-block
/// baseline's software tail block).
pub(crate) fn claim_pe(
    platform: &mut CosmosPlatform,
    exec: &mut TableExec,
    candidate: Option<usize>,
    count_fallback: bool,
) -> NkvResult<PeGrant> {
    // Watchdog: a hung PE never raises DONE; the firmware's poll times
    // out, the PE is retired and the block degrades to software. The
    // hang fault is rolled only when a PE was actually selected — the
    // RNG draw order matches the paired no-fault run — and the hang is
    // handled inside the same `if let`, so no unwrap can abort the
    // device when a hostile fault plan fires with no PE left.
    let mut hung = false;
    if let Some(d) = candidate {
        if platform.roll_pe_hang() {
            hung = true;
            exec.health.watchdog_trips += 1;
            if let Some(f) = exec.pe_failed.get_mut(d) {
                *f = true;
            }
            if !exec.resilience.hw_fallback_to_sw {
                return Err(NkvError::PeTimeout {
                    pe: d,
                    watchdog_ns: exec.resilience.watchdog_ns,
                });
            }
        }
    }
    match candidate {
        Some(d) if !hung => Ok(PeGrant::Hw(d)),
        _ => {
            if count_fallback {
                exec.health.sw_fallback_blocks += 1;
            }
            Ok(PeGrant::Sw { hung })
        }
    }
}

/// The time a degraded block resumes on the ARM: after the watchdog
/// timeout on a fresh hang, immediately otherwise.
pub(crate) fn sw_resume_at(exec: &TableExec, staged: SimNs, hung: bool) -> SimNs {
    if hung {
        staged + exec.resilience.watchdog_ns
    } else {
        staged
    }
}

/// Charge the ARM for one software filter pass over `bytes` of staged
/// data, starting no earlier than `resume`; returns the finish time.
pub(crate) fn arm_filter(platform: &mut CosmosPlatform, resume: SimNs, bytes: u64) -> SimNs {
    let (_, t) = platform.arm.schedule(resume, platform.arm_filter_ns(bytes));
    t
}

/// Schedule one hardware block job on PE `d`: the ARM performs the job's
/// register accesses `io` at `staged`, the PE streams the block for
/// `cycles`, and the PE's DRAM traffic rides the shared port — a load of
/// `load_bytes` at config-done (when given) and a store of `store_bytes`
/// at PE-done (when given). Returns the job's completion time: the store's finish
/// when it stores, the PE's finish otherwise. GET/SCAN/aggregate differ
/// only in which sides of the DRAM traffic exist.
#[allow(clippy::too_many_arguments)]
pub(crate) fn schedule_hw_job(
    platform: &mut CosmosPlatform,
    exec: &mut TableExec,
    d: usize,
    staged: SimNs,
    cycles: u64,
    io: IoStats,
    load_bytes: Option<u64>,
    store_bytes: Option<u64>,
) -> SimNs {
    let cfg_ns = timing::cfg_overhead_ns(io.reg_writes, io.reg_reads);
    let (cfg_start, cfg_done) = platform.arm.schedule(staged, cfg_ns);
    platform.trace_reg_access(d as u32, cfg_start, cfg_ns, io.reg_writes, io.reg_reads);
    let (pe_start, pe_done) = exec.pe_servers[d].schedule(cfg_done, cycles * timing::PL_CLK_NS);
    platform.trace_pe_job(d as u32, pe_start, pe_done - pe_start, cycles);
    if let Some(bytes) = load_bytes {
        let _ = platform.dram.timed_transfer(DramClient::PeLoad, bytes, cfg_done);
    }
    match store_bytes {
        Some(bytes) => platform.dram.timed_transfer(DramClient::PeStore, bytes, pe_done),
        None => pe_done,
    }
}

/// The `lane0 == key` rule a hardware GET programs into the PE, in the
/// table's own `eq` encoding. Lowering already rejects hardware GETs on
/// a table whose operator set omits `eq`, so the error needs a plan that
/// bypassed [`PhysicalPlan::lower`].
fn key_eq_rule(exec: &TableExec, key: u64) -> NkvResult<[FilterRule; 1]> {
    let op_code = exec.eq_code.ok_or_else(|| {
        NkvError::Config("hardware GET on a table generated without the `eq` operator".into())
    })?;
    Ok([FilterRule { lane: 0, op_code, value: key }])
}

/// What a scan keeps of each passing tuple, fixed by the plan's
/// [`PhysOp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Collect {
    /// The transformed tuple, returned over NVMe (a filter scan, and the
    /// PE output a GET searches).
    Records,
    /// The raw tuple (key = its first 8 bytes), folded into the
    /// aggregate's accumulator once reconciliation has dropped shadowed
    /// versions; only the 8-byte result crosses NVMe.
    Fold,
}

impl Collect {
    /// Run `program` over one block on the ARM oracle, appending what is
    /// collected of every passing tuple to `out`. Returns `(tuples_in,
    /// tuples_out)`.
    fn block(
        self,
        exec: &TableExec,
        program: &FilterProgram,
        data: &[u8],
        out: &mut Vec<u8>,
    ) -> (u64, u64) {
        match self {
            Collect::Records => {
                let stats = exec.processor.run_block(program, data, out);
                (u64::from(stats.tuples_in), u64::from(stats.tuples_out))
            }
            Collect::Fold => {
                let mut n = (0, 0);
                for tuple in data.chunks_exact(exec.processor.in_tuple_bytes()) {
                    n.0 += 1;
                    if program.passes(tuple) {
                        n.1 += 1;
                        out.extend_from_slice(tuple);
                    }
                }
                n
            }
        }
    }
}

/// One block's worth of hardware work (shared by GET and SCAN): the
/// functional pass, the PE's cycles and the ARM's register I/O of a job
/// with a chain of `rules`, launched the way `invoke` says ([`job_io`]).
/// Returns `(tuples_in, tuples_out, pe_cycles, io, store_bytes)`;
/// `store_bytes` is `None` for a fold, whose result stays in the PE's
/// accumulator register.
fn hw_filter_block(
    exec: &TableExec,
    data: &[u8],
    program: &FilterProgram,
    rules: usize,
    invoke: PeInvoke,
    collect: Collect,
    out: &mut Vec<u8>,
) -> (u64, u64, u64, IoStats, Option<u64>) {
    let (tin, tout) = collect.block(exec, program, data, out);
    let io = job_io(exec.profile, exec.stages, rules, invoke, collect == Collect::Fold);
    let stored = match (collect, exec.profile) {
        (Collect::Fold, _) => None,
        // The fixed-block baseline always writes whole blocks back.
        (Collect::Records, DriverProfile::Baseline) => Some(u64::from(exec.chunk_bytes)),
        (Collect::Records, DriverProfile::Generated) => {
            Some(tout * exec.processor.out_tuple_bytes() as u64)
        }
    };
    let cycles = estimate_block_cycles(data.len() as u64, tin, stored.unwrap_or(0), exec.stages);
    (tin, tout, cycles, io, stored)
}

/// ARM post-filter over the PE's output tuples in `out[before..]` (the
/// hybrid plan's residual stage). Only lowered when the transformation
/// is the identity, so input-lane offsets are valid on output tuples.
/// Returns the number of tuples dropped.
fn apply_residual(
    exec: &TableExec,
    residual: &FilterProgram,
    out: &mut Vec<u8>,
    before: usize,
) -> u64 {
    let ts = exec.processor.out_tuple_bytes().max(1);
    let mut kept = Vec::with_capacity(out.len() - before);
    let mut dropped = 0u64;
    for tup in out[before..].chunks_exact(ts) {
        if residual.passes(tup) {
            kept.extend_from_slice(tup);
        } else {
            dropped += 1;
        }
    }
    out.truncate(before);
    out.extend_from_slice(&kept);
    dropped
}

/// One scan's rule chains, compiled once when the scan starts, what it
/// collects, and what the ARM keeps of the staged blocks to reconcile.
/// The functional filter is always the whole conjunction; the plan's
/// split into pushed/residual only decides where each predicate runs.
struct ScanFilters {
    /// Pushed + residual: the memtable pass, the software backend and
    /// blocks degraded to the ARM.
    all: FilterProgram,
    /// What a PE is configured with (`rules` predicates).
    pushed: FilterProgram,
    rules: usize,
    /// What the ARM re-checks on a PE's output (hybrid plans).
    residual: FilterProgram,
    collect: Collect,
    /// Bytes one collected tuple occupies.
    width: usize,
    /// Key range of the memtable's entries, tombstones included (`None`
    /// when it is empty); set by the memtable pass.
    c0_keys: Option<(u64, u64)>,
    /// When the scan reconciles, the sorted key column of every staged
    /// block but the `oldest` SST's (it shadows nothing), keyed `(sst.id,
    /// block)`, with whether this op has searched it yet.
    staged_keys: HashMap<(u64, usize), (Vec<u64>, bool)>,
    oldest: Option<u64>,
}

impl ScanFilters {
    /// Whether `block`, of an SST whose newer components are `newer`, may
    /// run on a PE. Always for a filter scan: the PE's output is
    /// reconciled like any other. A fold's block is reduced in the PE's
    /// register, so only when no newer component — the memtable or an SST
    /// of lower rank — can hold a version of one of its keys: a
    /// conservative key-range test that walks no memtable.
    fn on_pe(&self, reconcile: bool, newer: &[&SstMeta], block: &BlockMeta) -> bool {
        let meets = |(lo, hi): (u64, u64)| lo <= block.last_key && block.first_key <= hi;
        self.collect == Collect::Records
            || !reconcile
            || !(self.c0_keys.is_some_and(meets)
                || newer.iter().any(|s| meets((s.min_key, s.max_key))))
    }
}

/// Which PE a scan block is offered to.
enum PeChoice<'a> {
    /// Serial dispatch: the next healthy PE after this cursor.
    RoundRobin(&'a mut usize),
    /// A parallel worker's own PE.
    Pinned(usize),
    /// None: the block is never HW-eligible (see [`ScanFilters::on_pe`])
    /// and runs on the ARM, which is not a fallback.
    Arm,
}

/// Read, stage and filter one scan block on the plan's backend,
/// appending what the scan collects of each passing tuple to `out` and
/// returning the block's completion time. The read issues at `issue`;
/// `configured[pe]` tracks whether the PE's rule registers are warm.
#[allow(clippy::too_many_arguments)]
fn scan_block_job(
    platform: &mut CosmosPlatform,
    exec: &mut TableExec,
    plan: &PhysicalPlan,
    filters: &mut ScanFilters,
    sst: &SstMeta,
    block_idx: usize,
    issue: SimNs,
    choice: PeChoice<'_>,
    configured: &mut [bool],
    out: &mut Vec<u8>,
    report: &mut SimReport,
) -> NkvResult<SimNs> {
    let (staged, block) = block_read(platform, exec, sst, block_idx, issue)?;
    let data: &[u8] = &block;
    if exec.reconcile && filters.oldest != Some(sst.id) {
        let tuples = data.chunks_exact(exec.processor.in_tuple_bytes());
        let mut keys = Vec::with_capacity(tuples.len());
        keys.extend(tuples.filter_map(|t| t.first_chunk().copied().map(u64::from_le_bytes)));
        filters.staged_keys.insert((sst.id, block_idx), (keys, false));
    }
    report.blocks += 1;
    report.bytes_scanned += data.len() as u64;
    // A block that was never HW-eligible runs on the ARM, which is not a
    // fallback: the software backend, a fold's shadowable block, and the
    // fixed-block baseline's tail block (it cannot express partial
    // blocks; its firmware handles the tail in software, see DESIGN.md).
    let never_hw = plan.backend == Backend::Software
        || matches!(choice, PeChoice::Arm)
        || exec.profile == DriverProfile::Baseline && (data.len() as u32) < exec.full_block_payload;
    let candidate = match choice {
        PeChoice::RoundRobin(rr) if !never_hw => {
            next_healthy_pe(&exec.pe_failed, exec.pe_servers.len(), rr)
        }
        PeChoice::Pinned(pe) if !never_hw => {
            (!exec.pe_failed.get(pe).copied().unwrap_or(false)).then_some(pe)
        }
        _ => None,
    };
    match claim_pe(platform, exec, candidate, !never_hw)? {
        PeGrant::Hw(d) => {
            let before = out.len();
            let (tin, tout, cycles, io, stored) = hw_filter_block(
                exec,
                data,
                &filters.pushed,
                filters.rules,
                if configured[d] { PeInvoke::Warm } else { PeInvoke::Cold },
                filters.collect,
                out,
            );
            configured[d] = true;
            report.tuples_in += tin;
            report.tuples_out += tout;
            report.reg_writes += io.reg_writes;
            report.reg_reads += io.reg_reads;
            // ARM configures the PE, then the PE streams the block; its
            // load and any store ride the DRAM port.
            let load = Some(data.len() as u64);
            let mut done = schedule_hw_job(platform, exec, d, staged, cycles, io, load, stored);
            if !plan.residual.is_empty() {
                // Hybrid residual: the ARM re-filters the PE's output
                // stream (it is in DRAM already) before reconciliation.
                let produced = (out.len() - before) as u64;
                done = arm_filter(platform, done, produced);
                report.tuples_out -= apply_residual(exec, &filters.residual, out, before);
            }
            Ok(done)
        }
        PeGrant::Sw { hung } => {
            // Never HW-eligible, a just-hung PE, or no healthy PE left:
            // one ARM pass over the *combined* chain (pushed + residual),
            // so the degraded block needs no residual pass.
            let (tin, tout) = filters.collect.block(exec, &filters.all, data, out);
            report.tuples_in += tin;
            report.tuples_out += tout;
            Ok(arm_filter(platform, sw_resume_at(exec, staged, hung), data.len() as u64))
        }
    }
}

/// Decode the keys of the `width`-byte tuples appended at
/// `results[from..]` into the reconciliation worklist. A result buffer
/// too short for a whole key means a PE wrote garbage — surfaced as a
/// typed error, not a panic.
fn decode_matched_keys(
    width: usize,
    results: &[u8],
    from: usize,
    rank: usize,
    matched_keys: &mut Vec<(u64, usize, usize)>,
) -> NkvResult<()> {
    for off in (from..results.len()).step_by(width.max(1)) {
        let key = results
            .get(off..)
            .and_then(<[u8]>::first_chunk)
            .map(|k| u64::from_le_bytes(*k))
            .ok_or(NkvError::ResultDecode { offset: off, need: 8, len: results.len() })?;
        matched_keys.push((key, rank, off));
    }
    Ok(())
}

/// The ARM's memtable pass: probe plus a per-byte filter walk.
fn memtable_pass_done(platform: &mut CosmosPlatform, lsm: &LsmTree, start: SimNs) -> SimNs {
    let (_, t) = platform.arm.schedule(
        start,
        timing::ARM_MEMTABLE_PROBE_NS
            + lsm.memtable().len() as u64
                * timing::ARM_FILTER_PS_PER_BYTE
                * lsm.record_bytes() as u64
                / 1000,
    );
    t
}

/// Put the platform's shared timelines and this table's PE pool into
/// (or back out of) gap-aware backfill, for code that expands several
/// job chains sequentially in host order that overlap in simulated
/// time — parallel scan workers, a batched GET's per-key walks, a queue
/// run's commands — so every timeline must accept out-of-order arrivals.
/// A queue run owns the mode while its queues are enabled: the platform
/// refuses the off-switch until then, and the PE pool follows it.
pub(crate) fn set_overlapped_dispatch(
    platform: &mut CosmosPlatform,
    exec: &mut TableExec,
    on: bool,
) {
    if platform.set_parallel_dispatch(on) {
        for s in &mut exec.pe_servers {
            s.set_backfill(on);
        }
    }
}

/// Per-scan statistics of the parallel block phase (see
/// `NkvDb::parallel_scan_stats`).
#[derive(Debug, Clone)]
pub struct ParallelScanStats {
    /// Worker streams the scan fanned out to.
    pub workers: usize,
    /// Blocks processed by each worker.
    pub blocks_per_worker: Vec<u64>,
}

/// The parallel block phase: partition blocks into per-worker streams
/// by flash-channel group, expand each worker's strictly-serial chain,
/// then merge per-job outputs back in global (component, block) order.
#[allow(clippy::too_many_arguments)]
fn run_parallel_scan_blocks(
    platform: &mut CosmosPlatform,
    exec: &mut TableExec,
    plan: &PhysicalPlan,
    filters: &mut ScanFilters,
    ssts: &[&SstMeta],
    start: SimNs,
    results: &mut Vec<u8>,
    matched_keys: &mut Vec<(u64, usize, usize)>,
    report: &mut SimReport,
) -> NkvResult<SimNs> {
    let n_pes = exec.pe_servers.len().max(1);
    let workers = plan.parallel_pes.min(n_pes).max(1);
    let channels = platform.flash.config().channels;
    // Global (component, block) order of `(sst idx, block idx)` jobs:
    // defines both the deterministic result merge and each worker's
    // in-stream issue order.
    let blocks = |(si, sst): (usize, &&SstMeta)| (0..sst.blocks.len()).map(move |bi| (si, bi));
    let jobs: Vec<(usize, usize)> = ssts.iter().enumerate().flat_map(blocks).collect();
    let mut streams: Vec<Vec<usize>> = vec![Vec::new(); workers];
    for (j, &(si, bi)) in jobs.iter().enumerate() {
        let ch = ssts[si].blocks[bi].pages.first().map_or(0, |p| p.channel);
        streams[worker_for_channel(ch, channels, workers)].push(j);
    }
    // The worker chains are expanded sequentially in host order but
    // overlap in simulated time.
    set_overlapped_dispatch(platform, exec, true);
    let res =
        parallel_scan_streams(platform, exec, plan, filters, ssts, start, &jobs, &streams, report);
    set_overlapped_dispatch(platform, exec, false);
    let (outs, op_end) = res?;
    for (&(si, _), out) in jobs.iter().zip(&outs) {
        let before = results.len();
        results.extend_from_slice(out);
        decode_matched_keys(filters.width, results, before, si + 1, matched_keys)?;
    }
    Ok(op_end)
}

/// Expand every worker's serial block chain (the streaming firmware
/// loop: read block, stage, filter, only then issue the next read).
#[allow(clippy::too_many_arguments)]
fn parallel_scan_streams(
    platform: &mut CosmosPlatform,
    exec: &mut TableExec,
    plan: &PhysicalPlan,
    filters: &mut ScanFilters,
    ssts: &[&SstMeta],
    start: SimNs,
    jobs: &[(usize, usize)],
    streams: &[Vec<usize>],
    report: &mut SimReport,
) -> NkvResult<(Vec<Vec<u8>>, SimNs)> {
    let n_pes = exec.pe_servers.len().max(1);
    let mut outs: Vec<Vec<u8>> = vec![Vec::new(); jobs.len()];
    let mut configured = vec![false; n_pes];
    let mut blocks_per_worker = vec![0u64; streams.len()];
    let mut op_end = start;
    for (w, stream) in streams.iter().enumerate() {
        let pe = w % n_pes;
        let mut t_next = start;
        for &j in stream {
            let (si, bi) = jobs[j];
            let on_pe = filters.on_pe(exec.reconcile, &ssts[..si], &ssts[si].blocks[bi]);
            let done = scan_block_job(
                platform,
                exec,
                plan,
                filters,
                ssts[si],
                bi,
                t_next,
                if on_pe { PeChoice::Pinned(pe) } else { PeChoice::Arm },
                &mut configured,
                &mut outs[j],
                report,
            )?;
            t_next = done;
            op_end = op_end.max(done);
            blocks_per_worker[w] += 1;
        }
    }
    exec.last_parallel_scan = Some(ParallelScanStats { workers: streams.len(), blocks_per_worker });
    Ok((outs, op_end))
}

/// Execute a lowered filter-scan or aggregate-scan plan: memtable pass,
/// per-block filtering on the plan's backend (serial or parallel),
/// version reconciliation, then the NVMe transfer of the surviving
/// records — or, for an aggregate, of the 8-byte accumulator they fold
/// into.
pub(crate) fn run_scan(
    platform: &mut CosmosPlatform,
    lsm: &LsmTree,
    exec: &mut TableExec,
    plan: &PhysicalPlan,
    now: SimNs,
) -> NkvResult<PlanOutcome> {
    // Built before any simulated work so a bad lane fails first; folded
    // once, after reconciliation.
    let mut fold = match plan.op {
        PhysOp::AggregateScan { agg, lane } => Some(
            AggAccumulator::new(&exec.processor, agg, lane)
                .ok_or_else(|| NkvError::InvalidLane { table: "<aggregate>".into(), lane })?,
        ),
        _ => None,
    };
    let mut report = SimReport::default();
    let mut results: Vec<u8> = Vec::new();
    let mut matched_keys: Vec<(u64, usize, usize)> = Vec::new(); // (key, rank, result offset)
    let start = now + platform.firmware.op_overhead_ns();
    let mut op_end = start;
    exec.last_parallel_scan = None;
    let ssts = lsm.all_ssts();
    let all_rules: Vec<FilterRule> =
        plan.pushed.iter().chain(plan.residual.iter()).copied().collect();
    let mut filters = ScanFilters {
        all: exec.processor.compile(&all_rules, &exec.ops),
        pushed: exec.processor.compile(&plan.pushed, &exec.ops),
        rules: plan.pushed.len(),
        residual: exec.processor.compile(&plan.residual, &exec.ops),
        collect: if fold.is_some() { Collect::Fold } else { Collect::Records },
        width: match fold {
            Some(_) => exec.processor.in_tuple_bytes(),
            None => exec.processor.out_tuple_bytes(),
        },
        c0_keys: None,
        staged_keys: HashMap::new(),
        oldest: ssts.last().map(|s| s.id),
    };

    // --- C0: the memtable participates in every scan (ARM-side); its
    // matches are collected like the PE path's.
    for (key, entry) in lsm.memtable().iter() {
        filters.c0_keys = Some((filters.c0_keys.map_or(key, |(lo, _)| lo), key));
        if let Entry::Value(rec) = entry {
            report.tuples_in += 1;
            if filters.all.passes(rec) {
                matched_keys.push((key, 0, results.len()));
                match filters.collect {
                    Collect::Records => exec.processor.transform_into(rec, &mut results),
                    Collect::Fold => results.extend_from_slice(rec),
                }
                report.tuples_out += 1;
            }
        }
    }
    op_end = op_end.max(memtable_pass_done(platform, lsm, start));

    // --- Persistent components: filter every data block.
    if plan.backend != Backend::Software && plan.parallel_pes >= 1 {
        let t = run_parallel_scan_blocks(
            platform,
            exec,
            plan,
            &mut filters,
            &ssts,
            start,
            &mut results,
            &mut matched_keys,
            &mut report,
        )?;
        op_end = op_end.max(t);
    } else {
        // Serial legacy dispatch: every flash read issues at `start`
        // (the firmware queues reads across channels); the flash model
        // serializes per resource.
        let mut driver_rr = 0usize;
        let mut configured = vec![false; exec.pe_servers.len().max(1)];
        for (rank, sst) in ssts.iter().enumerate() {
            let rank = rank + 1; // memtable is rank 0
            for bi in 0..sst.blocks.len() {
                let before = results.len();
                let on_pe = filters.on_pe(exec.reconcile, &ssts[..rank - 1], &sst.blocks[bi]);
                let done = scan_block_job(
                    platform,
                    exec,
                    plan,
                    &mut filters,
                    sst,
                    bi,
                    start,
                    if on_pe { PeChoice::RoundRobin(&mut driver_rr) } else { PeChoice::Arm },
                    &mut configured,
                    &mut results,
                    &mut report,
                )?;
                op_end = op_end.max(done);
                decode_matched_keys(filters.width, &results, before, rank, &mut matched_keys)?;
            }
        }
    }

    // --- Newest wins (DESIGN.md §11): a newer component holding the key —
    // memtable entry, tombstone, or staged key column of the block a bloom
    // hit points at — hides a match; a block's first search is an ARM pass.
    let mut keep = vec![true; matched_keys.len()];
    for (i, &(key, rank, _)) in matched_keys.iter().enumerate() {
        if !exec.reconcile || rank == 0 {
            continue; // memtable is always newest
        }
        if lsm.memtable_get(key).is_some() {
            keep[i] = false;
            continue;
        }
        for newer in &ssts[..rank - 1] {
            if newer.is_tombstoned(key) {
                keep[i] = false;
                break;
            }
            let Some(b) = newer.block_for(key).filter(|_| newer.may_contain(key)) else { continue };
            let (keys, searched) =
                filters.staged_keys.get_mut(&(newer.id, b)).ok_or_else(|| {
                    NkvError::Config(format!("SST {} block {b} was not staged", newer.id))
                })?;
            if !std::mem::replace(searched, true) {
                op_end = arm_filter(platform, op_end, u64::from(newer.blocks[b].bytes));
                report.shadow_confirm_reads += 1;
            }
            if keys.binary_search(&key).is_ok() {
                keep[i] = false;
                break;
            }
        }
    }
    report.tuples_out = keep.iter().filter(|&&k| k).count() as u64;
    let survivors = matched_keys
        .iter()
        .zip(&keep)
        .filter(|&(_, &k)| k)
        .map(|(&(_, _, off), _)| &results[off..off + filters.width]);
    let mut records = Vec::new();
    match &mut fold {
        None => {
            records.reserve(results.len());
            survivors.for_each(|t| records.extend_from_slice(t));
        }
        Some(acc) => {
            let lane = acc.lane;
            survivors
                .filter_map(|t| exec.processor.lane_value(t, lane))
                .for_each(|v| acc.update(v));
        }
    }

    // --- Host transfer of the result set (or the accumulator) over NVMe.
    let nvme_bytes = if fold.is_some() { 8 } else { records.len() as u64 };
    let (nv_start, host_done) = platform.nvme.transfer(op_end, nvme_bytes);
    platform.trace_nvme(nv_start, host_done - nv_start, nvme_bytes);
    report.result_bytes = nvme_bytes;
    report.sim_ns = host_done - now;
    Ok(match fold {
        None => PlanOutcome::Records { records, count: report.tuples_out, report },
        Some(acc) => PlanOutcome::Aggregate { value: acc.value(), any: acc.any(), report },
    })
}

/// Search one staged block for `key` on the plan's backend: the ARM's
/// binary search, or a `lane0 == key` filter job on PE 0 — GET always
/// targets PE 0 (one block, no parallelism to exploit), and a retired
/// or freshly hung PE 0 degrades the search to the ARM, like the SCAN
/// path. Returns the record, if the block holds it, and the search's
/// completion time. `configured` is whether an earlier key of the same
/// batch already programmed the PE: a serial GET passes `false` (every
/// GET reconfigures the reference value, so no rule caching applies), a
/// batch's later keys pay only the [`PeInvoke::Keyed`] strobe.
#[allow(clippy::too_many_arguments)]
fn key_search_job(
    platform: &mut CosmosPlatform,
    exec: &mut TableExec,
    backend: Backend,
    record_bytes: usize,
    key: u64,
    data: &[u8],
    staged: SimNs,
    configured: &mut bool,
    report: &mut SimReport,
) -> NkvResult<(Option<Vec<u8>>, SimNs)> {
    let grant = if backend == Backend::Software {
        PeGrant::Sw { hung: false }
    } else {
        let pe_down = exec.pe_failed.first().copied().unwrap_or(false);
        claim_pe(platform, exec, if pe_down { None } else { Some(0) }, true)?
    };
    match grant {
        PeGrant::Sw { hung } => {
            let rec = search_block(data, record_bytes, key)?.map(<[u8]>::to_vec);
            let (_, done) = platform
                .arm
                .schedule(sw_resume_at(exec, staged, hung), timing::ARM_BLOCK_SEARCH_NS);
            Ok((rec, done))
        }
        PeGrant::Hw(d) => {
            let invoke = if *configured { PeInvoke::Keyed } else { PeInvoke::Cold };
            *configured = true;
            let rules = key_eq_rule(exec, key)?;
            let program = exec.processor.compile(&rules, &exec.ops);
            let mut out = Vec::new();
            let (tin, tout, cycles, io, stored) =
                hw_filter_block(exec, data, &program, 1, invoke, Collect::Records, &mut out);
            report.tuples_in += tin;
            report.tuples_out += tout;
            report.reg_writes += io.reg_writes;
            report.reg_reads += io.reg_reads;
            // GET has no PE load phase in the model (the block is already
            // staged for the search); only the one-record store rides the
            // DRAM port.
            let done = schedule_hw_job(platform, exec, d, staged, cycles, io, None, stored);
            let rec = if out.is_empty() {
                None
            } else {
                let found = out.get(..record_bytes).ok_or(NkvError::ResultDecode {
                    offset: 0,
                    need: record_bytes,
                    len: out.len(),
                })?;
                Some(found.to_vec())
            };
            Ok((rec, done))
        }
    }
}

/// Execute a lowered point-lookup plan: a [`key_walk`] with nothing to
/// share, the firmware's op overhead in front and the record's NVMe
/// transfer behind.
pub(crate) fn run_get(
    platform: &mut CosmosPlatform,
    lsm: &LsmTree,
    exec: &mut TableExec,
    plan: &PhysicalPlan,
    now: SimNs,
) -> NkvResult<(Option<Vec<u8>>, SimReport)> {
    let PhysOp::PointLookup { key } = plan.op else {
        unreachable!("run_get requires a PointLookup plan");
    };
    let mut report = SimReport::default();
    let start = now + platform.firmware.op_overhead_ns();
    let (rec, mut end) =
        key_walk(platform, lsm, exec, plan.backend, key, start, None, &mut report)?;
    // Modelled as the firmware does it: a serial GET answered from the
    // memtable completes at the probe and does not ride the NVMe link.
    if let Some(r) = rec.as_ref().filter(|_| lsm.memtable_get(key).is_none()) {
        let (nv_start, host) = platform.nvme.transfer(end, r.len() as u64);
        platform.trace_nvme(nv_start, host - nv_start, r.len() as u64);
        end = host;
    }
    report.sim_ns = end - now;
    Ok((rec, report))
}

/// What the keys of one batched GET share: the first key to touch an
/// index page or a data block pays its flash read; later keys reuse the
/// in-DRAM copy (waiting until it is ready when they get there first).
/// This is what makes batching beat N serial GETs on the flash-bound
/// walk — every key of a batch probes the same L0/L1 index pages.
#[derive(Default)]
struct BatchShared {
    /// `sst.id` → time its index page is read + parsed.
    index_parsed: HashMap<u64, SimNs>,
    /// `(sst.id, block)` → (staged-complete time, block bytes).
    blocks: HashMap<(u64, usize), (SimNs, SharedBytes)>,
    /// Whether an earlier hardware block of the batch programmed the PE
    /// cold; every later one is a [`PeInvoke::Keyed`] strobe.
    configured: bool,
}

/// One key's lookup, starting at `start`: memtable probe, then the
/// bloom-pruned index walk with one block search per candidate. Returns
/// the record, if any, and when the walk ended; the NVMe result transfer
/// is the caller's. A serial GET is a batch of one with nothing to share
/// (`batch` is `None`): it reads every index page and block itself and
/// — the firmware keeps no rule cache across GET block jobs —
/// re-programs the PE cold for **every** block it searches.
#[allow(clippy::too_many_arguments)]
fn key_walk(
    platform: &mut CosmosPlatform,
    lsm: &LsmTree,
    exec: &mut TableExec,
    backend: Backend,
    key: u64,
    start: SimNs,
    mut batch: Option<&mut BatchShared>,
    report: &mut SimReport,
) -> NkvResult<(Option<Vec<u8>>, SimNs)> {
    // C0 probe.
    let (_, mut t) = platform.arm.schedule(start, timing::ARM_MEMTABLE_PROBE_NS);
    match lsm.memtable_get(key) {
        Some(Entry::Value(v)) => return Ok((Some(v.clone()), t)),
        Some(Entry::Tombstone) => return Ok((None, t)),
        None => {}
    }
    // Persistent components: the index walk is sequential (the next
    // lookup target depends on the previous miss).
    for sst in lsm.candidate_ssts(key) {
        if let Some(&page) = sst.index_pages.first() {
            t = match batch.as_ref().and_then(|b| b.index_parsed.get(&sst.id)) {
                // A batch-mate already read + parsed this index page:
                // reuse the in-DRAM parse, waiting for it if needed.
                Some(&parsed) => t.max(parsed),
                // Index block read + parse on the ARM (same retry policy
                // as data blocks; the content is already cached in `sst`).
                None => {
                    let idx_done = index_page_read(platform, exec, sst.id, page, t)?;
                    let (_, parsed) = platform.arm.schedule(idx_done, 2_000);
                    if let Some(b) = batch.as_deref_mut() {
                        b.index_parsed.insert(sst.id, parsed);
                    }
                    parsed
                }
            };
        }
        if sst.is_tombstoned(key) {
            return Ok((None, t));
        }
        if !sst.may_contain(key) {
            continue;
        }
        let Some(bi) = sst.block_for(key) else { continue };
        let mut fetch = || -> NkvResult<(SimNs, SharedBytes)> {
            let read = block_read(platform, exec, sst, bi, t)?;
            report.blocks += 1;
            report.bytes_scanned += read.1.len() as u64;
            Ok(read)
        };
        let (own, mut cold);
        let ((staged, data), configured) = match batch.as_deref_mut() {
            Some(BatchShared { blocks, configured, .. }) => {
                let shared = match blocks.entry((sst.id, bi)) {
                    hash_map::Entry::Occupied(e) => e.into_mut(),
                    hash_map::Entry::Vacant(v) => v.insert(fetch()?),
                };
                (&*shared, configured)
            }
            None => {
                // Serial GET: a private block, and a fresh flag per
                // block — every searched block is configured cold.
                (own, cold) = (fetch()?, false);
                (&own, &mut cold)
            }
        };
        // A batch-mate's block may still be in flight when this key
        // gets there; a block this key read itself is staged after `t`.
        let (found, done) = key_search_job(
            platform,
            exec,
            backend,
            lsm.record_bytes(),
            key,
            data,
            (*staged).max(t),
            configured,
            report,
        )?;
        t = done;
        if found.is_some() {
            return Ok((found, t));
        }
    }
    Ok((None, t))
}

/// Execute a lowered batched-GET plan: one key-list descriptor DMA, one
/// PE configuration, N streamed point lookups.
///
/// Per-key outcomes are independently attributed — a fault on one key's
/// walk lands as that slot's typed error while the rest of the batch
/// completes — and per-key completion times are monotone in key order
/// (results stream back in list order, so a key's completion never
/// precedes its predecessor's). The per-key chains expand from a common
/// start and overlap on the shared timelines, exactly like the parallel
/// scan's worker streams.
pub(crate) fn run_batched_get(
    platform: &mut CosmosPlatform,
    lsm: &LsmTree,
    exec: &mut TableExec,
    plan: &PhysicalPlan,
    now: SimNs,
) -> NkvResult<(crate::db::MultiGetResults, Vec<SimNs>, SimReport)> {
    let PhysOp::BatchedGet { keys } = &plan.op else {
        unreachable!("run_batched_get requires a BatchedGet plan");
    };
    let mut report = SimReport::default();
    let t0 = now + platform.firmware.op_overhead_ns();

    // Host DMAs the key-list descriptor; the ARM validates its header.
    let desc = cosmos_sim::KeyListDescriptor::new(keys)
        .map_err(|e| NkvError::Config(format!("batched GET: {e}")))?;
    let (nv_start, dma_done) = platform.nvme.transfer(t0, desc.dma_bytes() as u64);
    platform.trace_nvme(nv_start, dma_done - nv_start, desc.dma_bytes() as u64);
    let (_, t_start) = platform.arm.schedule(dma_done, timing::ARM_BATCH_HEADER_PARSE_NS);

    // Per-key chains overlap on the shared timelines.
    set_overlapped_dispatch(platform, exec, true);
    let mut shared = BatchShared::default();
    let mut results = Vec::with_capacity(keys.len());
    let mut dones = Vec::with_capacity(keys.len());
    let mut last_done = t_start;
    for &key in keys {
        match key_walk(
            platform,
            lsm,
            exec,
            plan.backend,
            key,
            t_start,
            Some(&mut shared),
            &mut report,
        ) {
            Ok((rec, t_key)) => {
                // Results stream back in key order: this key's record
                // rides the NVMe link no earlier than its predecessor's
                // completion.
                let mut host = t_key.max(last_done);
                if let Some(r) = &rec {
                    let (nv_s, h) = platform.nvme.transfer(host, r.len() as u64);
                    platform.trace_nvme(nv_s, h - nv_s, r.len() as u64);
                    report.result_bytes += r.len() as u64;
                    host = h;
                }
                last_done = host;
                results.push(Ok(rec));
                dones.push(host);
            }
            Err(e) => {
                // Typed error attributed to this key's slot; the rest
                // of the batch continues, and the error completion
                // still posts in order.
                results.push(Err(e));
                dones.push(last_done);
            }
        }
    }

    set_overlapped_dispatch(platform, exec, false);
    report.sim_ns = last_done.saturating_sub(now);
    Ok((results, dones, report))
}
