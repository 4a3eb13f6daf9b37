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
//! the ARM oracle when no PE is available — lives here exactly once,
//! and so does the firmware's fault policy: three constants
//! ([`MAX_READ_RETRIES`], [`BACKOFF_BASE_NS`], [`WATCHDOG_NS`]) that
//! the cluster router's per-shard retry uses too.
//!
//! # Parallel scan
//!
//! A scan runs one block loop over a list of streams of its (component,
//! block) jobs ([`scan_streams`]). A plan with `parallel_pes = n >= 1`
//! splits the job list into `n` per-worker streams by flash-channel group
//! (every block's pages live on one channel; see
//! `placement::worker_for_channel`). Each worker owns one PE and one
//! staging buffer and processes its stream *strictly serially* — block
//! `k+1` is issued only once block `k` is consumed — so the streams model
//! bounded per-worker staging. The serial dispatch (`parallel_pes = 0`)
//! is the one-stream case of the same loop: the idealized firmware loop
//! that issues every read at the op start and hands blocks round-robin
//! to the healthy PEs. The worker chains are expanded one after another
//! but overlap in simulated time on the shared timelines (flash
//! controllers, DRAM port, ARM), which place every job at its earliest
//! fit (the `cosmos_sim::server` module doc). Every job appends to one
//! result buffer, and the reconciliation pass walks the jobs' outputs in
//! global (component, block) order, so a parallel scan returns exactly
//! the serial plan's bytes.

use crate::error::{NkvError, NkvResult};
use crate::exec::{HealthCounters, SimReport, TableExec};
use crate::lsm::LsmTree;
use crate::memtable::Entry;
use crate::placement::worker_for_channel;
use crate::plan::{Backend, PhysOp, PhysicalPlan, PlanOutcome};
use crate::sst::{key_run, read_block, BlockMeta, SstMeta};
use cosmos_sim::dram::DramClient;
use cosmos_sim::{timing, CosmosPlatform, FlashArray, SharedBytes, SimNs};
use ndp_pe::oracle::{AggAccumulator, FilterProgram, FilterRule};
use ndp_pe::pipeline::estimate_block_cycles;
use ndp_swgen::{job_io, DriverProfile, IoStats, PeInvoke};
use std::collections::{hash_map, HashMap};
use std::ops::Range;

/// Retries after a failed first attempt: the 4th failure is final.
pub(crate) const MAX_READ_RETRIES: u32 = 3;

/// Backoff before the first retry (simulated time; the firmware
/// busy-waits the flash controller). Each later retry doubles it.
pub(crate) const BACKOFF_BASE_NS: SimNs = 50_000;

/// How long the firmware polls a PE's DONE flag before declaring it
/// hung. Charged in full on every watchdog trip.
pub(crate) const WATCHDOG_NS: SimNs = 1_000_000;

/// Backoff charged before retry `attempt` (1-based):
/// `BACKOFF_BASE_NS << (attempt - 1)`, so 50, 100 and 200 µs. One
/// definition shared by the block-read retry loop below and the cluster
/// router's per-shard retry wrapper.
pub(crate) fn backoff_before_retry(attempt: u32) -> SimNs {
    BACKOFF_BASE_NS << attempt.saturating_sub(1)
}

/// Run `attempt_read` at increasing simulated times until it succeeds,
/// fails non-retryably, or exhausts [`MAX_READ_RETRIES`], backing off
/// [`backoff_before_retry`] before each retry; every retry and the
/// backoff time are accounted in `health`. Exhaustion surfaces as
/// [`NkvError::RetriesExhausted`] with the given identity.
pub(crate) fn retry_read<T>(
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
                if attempt > MAX_READ_RETRIES {
                    health.reads_failed += 1;
                    return Err(NkvError::RetriesExhausted { sst_id, block, attempts: attempt });
                }
                health.read_retries += 1;
                let backoff = backoff_before_retry(attempt);
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
    health: &mut HealthCounters,
    sst: &SstMeta,
    block_idx: usize,
    now: SimNs,
) -> NkvResult<(SimNs, SharedBytes)> {
    retry_read(health, sst.id, block_idx, now, |at| read_block(flash, sst, block_idx, at))
}

/// Retrying read of an SST's index page (same policy as data blocks;
/// the page content is already parsed into the metadata, only the flash
/// time matters). Returns the read-completion time and the page.
pub(crate) fn read_index_page_resilient(
    platform: &mut CosmosPlatform,
    health: &mut HealthCounters,
    sst_id: u64,
    page: cosmos_sim::PhysAddr,
    now: SimNs,
) -> NkvResult<(SimNs, SharedBytes)> {
    // `usize::MAX` marks the index page (not a data block) in the error.
    let flash = &mut platform.flash;
    retry_read(health, sst_id, usize::MAX, now, |at| {
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
    let (read, data) =
        read_block_resilient(&mut platform.flash, &mut exec.health, sst, block_idx, now)?;
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
    let (done, page) = read_index_page_resilient(platform, &mut exec.health, sst_id, page, now)?;
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
    /// here (the caller charges [`WATCHDOG_NS`] before resuming).
    Sw { hung: bool },
}

/// Claim `candidate` for one block job: roll the platform's hang fault,
/// account watchdog trips and software fallbacks, and decide where the
/// block runs. A hung PE is retired for the session and its block
/// degrades to the ARM. `count_fallback` is false for blocks that were
/// never HW-eligible (the fixed-block baseline's software tail block).
pub(crate) fn claim_pe(
    platform: &mut CosmosPlatform,
    exec: &mut TableExec,
    candidate: Option<usize>,
    count_fallback: bool,
) -> PeGrant {
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
        }
    }
    match candidate {
        Some(d) if !hung => PeGrant::Hw(d),
        _ => {
            if count_fallback {
                exec.health.sw_fallback_blocks += 1;
            }
            PeGrant::Sw { hung }
        }
    }
}

/// The time a degraded block resumes on the ARM: after the watchdog
/// timeout on a fresh hang, immediately otherwise.
pub(crate) fn sw_resume_at(staged: SimNs, hung: bool) -> SimNs {
    if hung {
        staged + WATCHDOG_NS
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

/// What a scan keeps of each passing tuple, fixed by the plan's
/// [`PhysOp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Collect {
    /// The transformed tuple, returned over NVMe (a filter scan; a GET's
    /// key job is priced as one).
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

/// The price of one hardware block job (shared by GET and SCAN), from
/// what its functional pass reported: the PE's cycles to stream
/// `block_bytes` holding `tin` tuples of which `tout` pass, and the ARM's
/// register I/O of a job with a chain of `rules`, launched the way
/// `invoke` says ([`job_io`]). Returns `(pe_cycles, io, store_bytes)`;
/// `store_bytes` is `None` for a fold, whose result stays in the PE's
/// accumulator register.
fn hw_job_price(
    exec: &TableExec,
    block_bytes: u64,
    (tin, tout): (u64, u64),
    rules: usize,
    invoke: PeInvoke,
    collect: Collect,
) -> (u64, IoStats, Option<u64>) {
    let io = job_io(exec.profile, exec.stages, rules, invoke, collect == Collect::Fold);
    let stored = match (collect, exec.profile) {
        (Collect::Fold, _) => None,
        // The fixed-block baseline always writes whole blocks back.
        (Collect::Records, DriverProfile::Baseline) => Some(u64::from(exec.chunk_bytes)),
        (Collect::Records, DriverProfile::Generated) => {
            Some(tout * exec.processor.out_tuple_bytes() as u64)
        }
    };
    let cycles = estimate_block_cycles(block_bytes, tin, stored.unwrap_or(0), exec.stages);
    (cycles, io, stored)
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
/// collects, and the staged blocks the ARM searches to reconcile. The
/// functional filter is always the whole conjunction; the plan's split
/// into pushed/residual only decides where each predicate runs.
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
    /// Key range of the memtable's entries, tombstones included (`None`
    /// when it is empty).
    c0_keys: Option<(u64, u64)>,
    /// When the scan reconciles, every staged block of every SST but the
    /// oldest (it shadows nothing), indexed `[component][block]`, with
    /// whether this op has searched it yet. A slot holds the staged bytes
    /// themselves, shared with flash and the cache.
    staged: Vec<Vec<Option<(SharedBytes, bool)>>>,
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

    /// Newest wins (DESIGN.md §11): whether a component newer than a
    /// match's — the memtable, or one of the SSTs `newer` — holds `key`:
    /// a memtable entry or tombstone, an SST tombstone, or a record of
    /// the staged block a bloom hit points at, searched in place with
    /// [`key_run`]. A block's first search is one ARM filter pass over
    /// it, charged at `op_end`.
    fn shadowed(
        &mut self,
        platform: &mut CosmosPlatform,
        lsm: &LsmTree,
        newer: &[&SstMeta],
        key: u64,
        op_end: &mut SimNs,
        report: &mut SimReport,
    ) -> NkvResult<bool> {
        if lsm.memtable_get(key).is_some() {
            return Ok(true);
        }
        for (si, sst) in newer.iter().enumerate() {
            if sst.is_tombstoned(key) {
                return Ok(true);
            }
            let Some(b) = sst.block_for(key).filter(|_| sst.may_contain(key)) else { continue };
            let slot = self.staged.get_mut(si).and_then(|s| s.get_mut(b)).and_then(Option::as_mut);
            let Some((block, searched)) = slot else {
                return Err(NkvError::Config(format!("SST {} block {b} was not staged", sst.id)));
            };
            if !std::mem::replace(searched, true) {
                *op_end = arm_filter(platform, *op_end, u64::from(sst.blocks[b].bytes));
                report.shadow_confirm_reads += 1;
            }
            if !key_run(block, lsm.record_bytes(), key)?.is_empty() {
                return Ok(true);
            }
        }
        Ok(false)
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
/// returning the block's completion time and the staged block. The read
/// issues at `issue`; `configured[pe]` tracks whether the PE's rule
/// registers are warm.
#[allow(clippy::too_many_arguments)]
fn scan_block_job(
    platform: &mut CosmosPlatform,
    exec: &mut TableExec,
    plan: &PhysicalPlan,
    filters: &ScanFilters,
    sst: &SstMeta,
    block_idx: usize,
    issue: SimNs,
    choice: PeChoice<'_>,
    configured: &mut [bool],
    out: &mut Vec<u8>,
    report: &mut SimReport,
) -> NkvResult<(SimNs, SharedBytes)> {
    let (staged, block) = block_read(platform, exec, sst, block_idx, issue)?;
    let data: &[u8] = &block;
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
    match claim_pe(platform, exec, candidate, !never_hw) {
        PeGrant::Hw(d) => {
            let before = out.len();
            let (tin, tout) = filters.collect.block(exec, &filters.pushed, data, out);
            let (cycles, io, stored) = hw_job_price(
                exec,
                data.len() as u64,
                (tin, tout),
                filters.rules,
                if configured[d] { PeInvoke::Warm } else { PeInvoke::Cold },
                filters.collect,
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
            Ok((done, block))
        }
        PeGrant::Sw { hung } => {
            // Never HW-eligible, a just-hung PE, or no healthy PE left:
            // one ARM pass over the *combined* chain (pushed + residual),
            // so the degraded block needs no residual pass.
            let (tin, tout) = filters.collect.block(exec, &filters.all, data, out);
            report.tuples_in += tin;
            report.tuples_out += tout;
            let done = arm_filter(platform, sw_resume_at(staged, hung), data.len() as u64);
            Ok((done, block))
        }
    }
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

/// Per-scan statistics of the parallel block phase (see
/// `NkvDb::parallel_scan_stats`).
#[derive(Debug, Clone)]
pub struct ParallelScanStats {
    /// Worker streams the scan fanned out to.
    pub workers: usize,
    /// Blocks processed by each worker.
    pub blocks_per_worker: Vec<u64>,
}

/// A scan's block jobs — indices into its (component, block) job list
/// `jobs` — as streams, each with the PE it is pinned to. A plan with
/// `parallel_pes = n >= 1` on a PE backend has `n` (capped at the PE
/// count) channel-group streams, stream `w` pinned to PE `w`; any other
/// plan has one unpinned stream of every job.
fn scan_streams(
    platform: &CosmosPlatform,
    exec: &TableExec,
    plan: &PhysicalPlan,
    ssts: &[&SstMeta],
    jobs: &[(usize, usize)],
) -> Vec<(Option<usize>, Vec<usize>)> {
    if plan.backend == Backend::Software || plan.parallel_pes == 0 {
        return vec![(None, (0..jobs.len()).collect())];
    }
    let workers = plan.parallel_pes.min(exec.pe_servers.len()).max(1);
    let channels = platform.flash.config().channels;
    let mut streams: Vec<_> = (0..workers).map(|w| (Some(w), Vec::new())).collect();
    for (j, &(si, bi)) in jobs.iter().enumerate() {
        let ch = ssts[si].blocks[bi].pages.first().map_or(0, |p| p.channel);
        streams[worker_for_channel(ch, channels, workers)].1.push(j);
    }
    streams
}

/// Execute a lowered filter-scan or aggregate-scan plan: memtable pass,
/// per-block filtering on the plan's backend — one loop over the scan's
/// streams ([`scan_streams`]), every job appending to one result buffer
/// — then one reconciliation pass over the matches in (component,
/// block) order, writing each survivor into the result set (or folding
/// it), then the NVMe transfer of the surviving records — or, for an
/// aggregate, of the 8-byte accumulator they fold into.
pub(crate) fn run_scan(
    platform: &mut CosmosPlatform,
    lsm: &LsmTree,
    exec: &mut TableExec,
    plan: &PhysicalPlan,
    now: SimNs,
) -> NkvResult<PlanOutcome> {
    // Folded once, after reconciliation.
    let mut fold = match plan.op {
        PhysOp::AggregateScan { agg, lane } => Some(
            AggAccumulator::new(&exec.processor, agg, lane)
                .expect("`PhysicalPlan::lower` checked the reduce lane against the table"),
        ),
        _ => None,
    };
    // Bytes one collected tuple occupies, and where its 8-byte key sits:
    // a fold keeps raw tuples; a PE output tuple carries the key wherever
    // the transform puts input bytes 0..8, which `create_table` requires
    // of a reconciling table.
    let (width, key_at) = match fold {
        Some(_) => (exec.processor.in_tuple_bytes(), 0),
        None => (exec.processor.out_tuple_bytes(), exec.processor.out_offset_of(0, 8).unwrap_or(0)),
    };
    let mut report = SimReport::default();
    let mut results: Vec<u8> = Vec::new();
    let start = now + platform.firmware.op_overhead_ns();
    let mut op_end = start;
    exec.last_parallel_scan = None;
    let ssts = lsm.all_ssts();
    let all_rules: Vec<FilterRule> =
        plan.pushed.iter().chain(plan.residual.iter()).copied().collect();
    let newer_ssts = if exec.reconcile { ssts.len().saturating_sub(1) } else { 0 };
    let mut filters = ScanFilters {
        all: exec.processor.compile(&all_rules, &exec.ops),
        pushed: exec.processor.compile(&plan.pushed, &exec.ops),
        rules: plan.pushed.len(),
        residual: exec.processor.compile(&plan.residual, &exec.ops),
        collect: if fold.is_some() { Collect::Fold } else { Collect::Records },
        c0_keys: lsm.memtable().key_range(),
        staged: ssts[..newer_ssts].iter().map(|s| vec![None; s.blocks.len()]).collect(),
    };

    // --- C0: the memtable participates in every scan (ARM-side); its
    // matches are collected like the PE path's.
    for (_, entry) in lsm.memtable().iter() {
        if let Entry::Value(rec) = entry {
            report.tuples_in += 1;
            if filters.all.passes(rec) {
                match filters.collect {
                    Collect::Records => exec.processor.transform_into(rec, &mut results),
                    Collect::Fold => results.extend_from_slice(rec),
                }
            }
        }
    }
    op_end = op_end.max(memtable_pass_done(platform, lsm, start));

    // --- Persistent components: filter every data block. `parts` holds
    // each component rank's output range in `results` in (component,
    // block) order: the memtable's (rank 0), then job `j`'s at `j + 1`.
    let blocks = |(si, sst): (usize, &&SstMeta)| (0..sst.blocks.len()).map(move |bi| (si, bi));
    let jobs: Vec<(usize, usize)> = ssts.iter().enumerate().flat_map(blocks).collect();
    let mut parts = vec![(0, 0..results.len())];
    parts.extend(jobs.iter().map(|&(si, _)| (si + 1, 0..0)));
    let streams = scan_streams(platform, exec, plan, &ssts, &jobs);
    let mut configured = vec![false; exec.pe_servers.len().max(1)];
    let mut driver_rr = 0usize;
    for (pinned, stream) in &streams {
        // An unpinned stream issues every read at `start` (the firmware
        // queues reads across channels; the flash model serializes per
        // resource); a pinned one issues block `k + 1` only once block
        // `k` is done (bounded per-worker staging).
        let mut issue = start;
        for &j in stream {
            let (si, bi) = jobs[j];
            let on_pe = filters.on_pe(exec.reconcile, &ssts[..si], &ssts[si].blocks[bi]);
            let choice = match pinned {
                _ if !on_pe => PeChoice::Arm,
                Some(pe) => PeChoice::Pinned(*pe),
                None => PeChoice::RoundRobin(&mut driver_rr),
            };
            let before = results.len();
            let (done, block) = scan_block_job(
                platform,
                exec,
                plan,
                &filters,
                ssts[si],
                bi,
                issue,
                choice,
                &mut configured,
                &mut results,
                &mut report,
            )?;
            parts[j + 1].1 = before..results.len();
            if let Some(slot) = filters.staged.get_mut(si) {
                slot[bi] = Some((block, false));
            }
            if pinned.is_some() {
                issue = done;
            }
            op_end = op_end.max(done);
        }
    }
    if streams[0].0.is_some() {
        let blocks_per_worker = streams.iter().map(|(_, s)| s.len() as u64).collect();
        exec.last_parallel_scan =
            Some(ParallelScanStats { workers: streams.len(), blocks_per_worker });
    }

    // --- One reconciliation pass, in (component, block) order: a match
    // shadowed by a newer component is dropped ([`ScanFilters::shadowed`];
    // the memtable is always newest), every other is written straight
    // into the result set, or folded.
    let mut records = Vec::with_capacity(if fold.is_some() { 0 } else { results.len() });
    report.tuples_out = 0;
    for (rank, range) in parts {
        for tuple in results[range].chunks_exact(width.max(1)) {
            if exec.reconcile && rank > 0 {
                let key = crate::util::le_u64(tuple, key_at, "scan result key")?;
                let newer = &ssts[..rank - 1];
                if filters.shadowed(platform, lsm, newer, key, &mut op_end, &mut report)? {
                    continue;
                }
            }
            report.tuples_out += 1;
            match &mut fold {
                None => records.extend_from_slice(tuple),
                Some(acc) => {
                    if let Some(v) = exec.processor.lane_value(tuple, acc.lane) {
                        acc.update(v);
                    }
                }
            }
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
/// path. Both arms answer from the block's run of `key` ([`key_run`])
/// and return the run's first record. The PE job is priced as the
/// full-block filter it models — every whole tuple in, the run out and
/// stored ([`hw_job_price`]); lowering admits a hardware GET only where
/// lane 0 is the key (`PlanCaps::key_lane`) and the transform is the
/// identity, so the run is exactly what that filter passes and its
/// first stored tuple is the record. Returns the record, if the block
/// holds it, and the search's completion time. `configured`
/// is whether an earlier key of the same batch already programmed the
/// PE: a serial GET passes `false` (every GET reconfigures the reference
/// value, so no rule caching applies), a batch's later keys pay only the
/// [`PeInvoke::Keyed`] strobe.
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
        claim_pe(platform, exec, if pe_down { None } else { Some(0) }, true)
    };
    let ((tin, tout), first) = key_job(exec, data, key_run(data, record_bytes, key)?, record_bytes);
    match grant {
        PeGrant::Sw { hung } => {
            let (_, done) =
                platform.arm.schedule(sw_resume_at(staged, hung), timing::ARM_BLOCK_SEARCH_NS);
            Ok((first, done))
        }
        PeGrant::Hw(d) => {
            let invoke = if *configured { PeInvoke::Keyed } else { PeInvoke::Cold };
            *configured = true;
            let (cycles, io, stored) =
                hw_job_price(exec, data.len() as u64, (tin, tout), 1, invoke, Collect::Records);
            report.tuples_in += tin;
            report.tuples_out += tout;
            report.reg_writes += io.reg_writes;
            report.reg_reads += io.reg_reads;
            // GET has no PE load phase in the model (the block is already
            // staged for the search); only the PE's store rides the DRAM
            // port.
            let done = schedule_hw_job(platform, exec, d, staged, cycles, io, None, stored);
            Ok((first, done))
        }
    }
}

/// A GET's answer from one block's run of the key (`run`, from
/// [`key_run`]): `(tuples_in, tuples_out)` as the full-block
/// `lane0 == key` filter a PE job models reports them — every whole
/// tuple in, the run out — and the run's first record.
fn key_job(
    exec: &TableExec,
    data: &[u8],
    run: Range<usize>,
    record_bytes: usize,
) -> ((u64, u64), Option<Vec<u8>>) {
    let counts = ((data.len() / exec.processor.in_tuple_bytes()) as u64, run.len() as u64);
    let first =
        (!run.is_empty()).then(|| data[run.start * record_bytes..][..record_bytes].to_vec());
    (counts, first)
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
    let (rec, mut end, from_c0) =
        key_walk(platform, lsm, exec, plan.backend, key, start, None, &mut report)?;
    // Modelled as the firmware does it: a serial GET answered from the
    // memtable completes at the probe and does not ride the NVMe link.
    if let Some(r) = rec.as_ref().filter(|_| !from_c0) {
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
/// the record, if any, when the walk ended, and whether the memtable
/// answered; the NVMe result transfer is the caller's. A serial GET is a
/// batch of one with nothing to share (`batch` is `None`): it reads every
/// index page and block itself and — the firmware keeps no rule cache
/// across GET block jobs — re-programs the PE cold for **every** block it
/// searches.
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
) -> NkvResult<(Option<Vec<u8>>, SimNs, bool)> {
    // C0 probe.
    let (_, mut t) = platform.arm.schedule(start, timing::ARM_MEMTABLE_PROBE_NS);
    match lsm.memtable_get(key) {
        Some(Entry::Value(v)) => return Ok((Some(v.clone()), t, true)),
        Some(Entry::Tombstone) => return Ok((None, t, true)),
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
            return Ok((None, t, false));
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
            return Ok((found, t, false));
        }
    }
    Ok((None, t, false))
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
            Ok((rec, t_key, _)) => {
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

    report.sim_ns = last_done.saturating_sub(now);
    Ok((results, dones, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::tests::make_exec;
    use crate::placement::PageAllocator;
    use crate::sst::{RunShape, RunWriter};
    use cosmos_sim::FlashConfig;

    /// `Ref` records (`src`, `dst`, a year) written by [`RunWriter`] into
    /// 32 KiB blocks of 1638 records, read back as a GET stages them.
    fn blocks(records: &[(u64, u64)], duplicates: bool) -> Vec<SharedBytes> {
        let mut flash = FlashArray::new(FlashConfig::default());
        let mut alloc = PageAllocator::new(flash.config());
        let shape = RunShape {
            table: "refs",
            level: 1,
            record_bytes: 20,
            block_bytes: 32 * 1024,
            entries_per_sst: usize::MAX,
            allow_duplicates: duplicates,
        };
        let mut run = RunWriter::new(&mut flash, &mut alloc, 0, shape);
        for &(src, dst) in records {
            let mut r = [src.to_le_bytes(), dst.to_le_bytes()].concat();
            r.extend_from_slice(&2024u32.to_le_bytes());
            run.add(src, Some(&r)).unwrap();
        }
        let (ssts, _) = run.finish().unwrap();
        let mut out = Vec::new();
        for sst in &ssts {
            for bi in 0..sst.blocks.len() {
                out.push(read_block(&mut flash, sst, bi, 0).unwrap().1);
            }
        }
        out
    }

    /// A hardware GET answers from the key's run ([`key_run`] +
    /// [`key_job`]) what the full-block `lane0 == key` filter job it
    /// models reports: tuples in and out, stored bytes, PE cycles and the
    /// record returned — on a unique-key and a duplicate-key table, under
    /// both register protocols, for present and absent keys inside each
    /// block, keys outside it, runs at its first and last tuple and a
    /// one-tuple block.
    #[test]
    fn key_run_answers_what_the_full_block_filter_reports() {
        // Two full blocks and a one-tuple third block each.
        let n = 2 * 1638 + 1;
        let unique: Vec<(u64, u64)> = (1..=n as u64).map(|k| (2 * k, 7 * k)).collect();
        // Key k holds 1 + k % 7 records; runs straddle block boundaries.
        let dups: Vec<(u64, u64)> =
            (1u64..).flat_map(|k| (0..=k % 7).map(move |j| (2 * k, 100 * k + j))).take(n).collect();
        let (mut first_runs, mut last_runs, mut absent, mut one_tuple) = (0, 0, 0, 0);
        for (records, duplicates) in [(unique, false), (dups, true)] {
            let blocks = blocks(&records, duplicates);
            assert_eq!(blocks.len(), 3);
            for baseline in [false, true] {
                let mut exec = make_exec(1, baseline);
                if baseline {
                    exec.stages = 1;
                }
                let eq = exec.eq_code.unwrap();
                for data in &blocks {
                    let tuples = data.len() / 20;
                    one_tuple += usize::from(tuples == 1);
                    let key_at =
                        |i: usize| u64::from_le_bytes(data[i * 20..][..8].try_into().unwrap());
                    let (lo, hi) = (key_at(0), key_at(tuples - 1));
                    let mut probes = vec![0, 1, lo - 1, lo, lo + 1, hi - 1, hi, hi + 1, u64::MAX];
                    for i in [1, tuples / 3, tuples / 2, tuples.saturating_sub(2)] {
                        probes.extend([key_at(i.min(tuples - 1)) - 1, key_at(i.min(tuples - 1))]);
                    }
                    for key in probes {
                        let rule = [FilterRule { lane: 0, op_code: eq, value: key }];
                        let mut out = Vec::new();
                        let stats = exec.processor.run_block(
                            &exec.processor.compile(&rule, &exec.ops),
                            data,
                            &mut out,
                        );
                        let want = (u64::from(stats.tuples_in), u64::from(stats.tuples_out));
                        let run = key_run(data, 20, key).unwrap();
                        let what = format!(
                            "key {key}, run {run:?}, duplicates {duplicates}, baseline {baseline}"
                        );
                        first_runs += usize::from(run.start == 0 && !run.is_empty());
                        last_runs += usize::from(run.end == tuples && !run.is_empty());
                        absent += usize::from(run.is_empty() && (lo..=hi).contains(&key));
                        let (got, rec) = key_job(&exec, data, run, 20);
                        assert_eq!(got, want, "tuples in/out, {what}");
                        let price = |counts| {
                            hw_job_price(
                                &exec,
                                data.len() as u64,
                                counts,
                                1,
                                PeInvoke::Cold,
                                Collect::Records,
                            )
                        };
                        let ((cycles, _, stored), (want_cycles, _, want_stored)) =
                            (price(got), price(want));
                        assert_eq!((cycles, stored), (want_cycles, want_stored), "{what}");
                        assert_eq!(rec.as_deref(), out.get(..20), "first record, {what}");
                    }
                }
            }
        }
        assert!(first_runs > 0 && last_runs > 0 && absent > 0, "{first_runs} {last_runs} {absent}");
        assert_eq!(one_tuple, 4, "each table's third block holds one tuple, under both protocols");
    }
}
