//! Paired NVMe submission/completion queues.
//!
//! The Cosmos+ NVMe front-end (250 MHz PL) exposes the standard NVMe
//! queueing model to the host: the driver rings a submission-queue
//! doorbell (one MMIO write), the controller fetches the 64 B submission
//! entry over the link, executes the command, and posts a 16 B
//! completion entry back to host memory. This module models that
//! envelope on top of the FCFS [`Server`]/[`BandwidthLink`] timeline —
//! it accounts for the per-command doorbell + SQE/CQE link traffic and
//! enforces per-queue depth, while the *execution* of each command
//! (flash, PEs, ARM) stays with the existing executor.
//!
//! Commands are processed one at a time in simulated time, so a
//! command's completion time is already known when the next command is
//! admitted; a queue pair therefore tracks its in-flight window as a
//! min-heap of completion times and drains it lazily. When a pair is
//! full, admission stalls (in simulated time) until the earliest
//! in-flight command completes — the host blocking on a full SQ.
//!
//! Like faults and tracing, the queue model is strictly opt-in: the
//! platform holds an `Option<NvmeQueues>` that is `None` by default, and
//! the serial executor path never touches it.
//!
//! [`Server`]: crate::server::Server
//! [`BandwidthLink`]: crate::server::BandwidthLink

use crate::SimNs;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Size of one NVMe submission-queue entry fetched over the link.
pub(crate) const SQE_BYTES: u64 = 64;

/// Size of one NVMe completion-queue entry posted over the link.
pub(crate) const CQE_BYTES: u64 = 16;

/// Queue-geometry configuration: how many paired SQ/CQ rings the
/// controller exposes and how many commands each may hold in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NvmeQueueConfig {
    /// Number of paired submission/completion queues.
    pub queues: u16,
    /// Maximum in-flight commands per pair (SQ depth).
    pub depth: u16,
}

impl Default for NvmeQueueConfig {
    /// Eight pairs of depth 32 — modest for NVMe, generous for a device
    /// whose flash array has eight channels.
    fn default() -> Self {
        Self { queues: 8, depth: 32 }
    }
}

/// Counters kept per queue pair (and summable device-wide).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Commands admitted into the pair.
    pub submitted: u64,
    /// Commands whose completion entry has been posted.
    pub completed: u64,
    /// Admissions that found the pair full and had to stall.
    pub full_stalls: u64,
    /// Total simulated time spent stalled on a full pair.
    pub(crate) full_stall_ns: SimNs,
    /// High-water mark of concurrently in-flight commands.
    pub max_inflight: u64,
    /// Doorbell MMIO writes *saved* by batched submission: a batch of N
    /// commands rings one SQ doorbell instead of N, so each batch adds
    /// N-1 here (and the CQ-head write-back coalesces the same way).
    pub coalesced_doorbells: u64,
}

impl QueueStats {
    fn absorb(&mut self, other: &QueueStats) {
        self.submitted += other.submitted;
        self.completed += other.completed;
        self.full_stalls += other.full_stalls;
        self.full_stall_ns += other.full_stall_ns;
        self.max_inflight = self.max_inflight.max(other.max_inflight);
        self.coalesced_doorbells += other.coalesced_doorbells;
    }
}

/// One paired submission/completion queue.
#[derive(Debug, Clone)]
pub struct QueuePair {
    depth: u16,
    /// Completion times of in-flight commands (min-heap). Entries are
    /// popped lazily at the next admission that reaches past them.
    inflight: BinaryHeap<Reverse<SimNs>>,
    stats: QueueStats,
}

impl QueuePair {
    fn new(depth: u16) -> Self {
        Self { depth, inflight: BinaryHeap::new(), stats: QueueStats::default() }
    }

    /// Counters for this pair.
    pub(crate) fn stats(&self) -> &QueueStats {
        &self.stats
    }

    /// Commands still in flight as of the last admission.
    #[cfg(test)]
    pub(crate) fn inflight(&self) -> usize {
        self.inflight.len()
    }

    fn drain_completed(&mut self, now: SimNs) {
        while matches!(self.inflight.peek(), Some(Reverse(t)) if *t <= now) {
            self.inflight.pop();
        }
    }

    /// Admit one command at `now`, returning the simulated time the
    /// doorbell can actually be rung: `now` when a slot is free, or the
    /// earliest in-flight completion when the pair is full (the host
    /// stalls on the full SQ).
    pub(crate) fn admit(&mut self, now: SimNs) -> SimNs {
        self.drain_completed(now);
        let mut at = now;
        if self.inflight.len() >= usize::from(self.depth) {
            let Reverse(earliest) = self.inflight.pop().expect("full queue is non-empty");
            self.stats.full_stalls += 1;
            self.stats.full_stall_ns += earliest - at;
            at = earliest;
            self.drain_completed(at);
        }
        self.stats.submitted += 1;
        at
    }

    /// Record that the command just admitted holds its slot until
    /// `complete_ns` (known immediately because commands execute
    /// synchronously in simulated time).
    pub(crate) fn commit(&mut self, complete_ns: SimNs) {
        self.inflight.push(Reverse(complete_ns));
        self.stats.max_inflight = self.stats.max_inflight.max(self.inflight.len() as u64);
        self.stats.completed += 1;
    }

    /// Account doorbell MMIO writes saved by a coalesced batch (one SQ
    /// tail ring + one CQ head write-back for N commands).
    pub(crate) fn note_coalesced(&mut self, saved: u64) {
        self.stats.coalesced_doorbells += saved;
    }
}

/// The controller's full set of queue pairs.
#[derive(Debug, Clone)]
pub struct NvmeQueues {
    cfg: NvmeQueueConfig,
    pairs: Vec<QueuePair>,
}

impl NvmeQueues {
    /// Build `cfg.queues` empty pairs of depth `cfg.depth`.
    pub(crate) fn new(cfg: NvmeQueueConfig) -> Self {
        assert!(cfg.queues > 0, "need at least one queue pair");
        assert!(cfg.depth > 0, "queue depth must be positive");
        let pairs = (0..cfg.queues).map(|_| QueuePair::new(cfg.depth)).collect();
        Self { cfg, pairs }
    }

    /// Static client→queue mapping (round-robin by client id), the
    /// usual one-queue-per-submitter NVMe driver layout.
    pub(crate) fn pair_for_client(&self, client: u32) -> u16 {
        (client % u32::from(self.cfg.queues)) as u16
    }

    /// Borrow one pair by id.
    #[cfg(test)]
    pub(crate) fn pair(&self, qid: u16) -> &QueuePair {
        &self.pairs[usize::from(qid)]
    }

    pub(crate) fn pair_mut(&mut self, qid: u16) -> &mut QueuePair {
        &mut self.pairs[usize::from(qid)]
    }

    /// Counters summed across every pair (`max_inflight` is the max).
    pub fn stats_total(&self) -> QueueStats {
        let mut total = QueueStats::default();
        for p in &self.pairs {
            total.absorb(p.stats());
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_geometry_is_eight_by_thirty_two() {
        let cfg = NvmeQueueConfig::default();
        assert_eq!(cfg.queues, 8);
        assert_eq!(cfg.depth, 32);
    }

    #[test]
    fn clients_round_robin_across_pairs() {
        let q = NvmeQueues::new(NvmeQueueConfig { queues: 4, depth: 2 });
        assert_eq!(q.pair_for_client(0), 0);
        assert_eq!(q.pair_for_client(3), 3);
        assert_eq!(q.pair_for_client(4), 0);
        assert_eq!(q.pair_for_client(9), 1);
    }

    #[test]
    fn admission_is_immediate_below_depth() {
        let mut p = QueuePair::new(2);
        assert_eq!(p.admit(100), 100);
        p.commit(500);
        assert_eq!(p.admit(110), 110);
        p.commit(600);
        assert_eq!(p.inflight(), 2);
        assert_eq!(p.stats().full_stalls, 0);
    }

    #[test]
    fn full_pair_stalls_to_earliest_completion() {
        let mut p = QueuePair::new(2);
        assert_eq!(p.admit(0), 0);
        p.commit(500);
        assert_eq!(p.admit(10), 10);
        p.commit(300);
        // Both slots held; earliest completion is 300.
        assert_eq!(p.admit(20), 300);
        assert_eq!(p.stats().full_stalls, 1);
        assert_eq!(p.stats().full_stall_ns, 280);
        p.commit(900);
        // By 600 the command that completed at 500 has drained too.
        assert_eq!(p.admit(600), 600);
        assert_eq!(p.stats().submitted, 4);
    }

    #[test]
    fn completed_commands_drain_lazily() {
        let mut p = QueuePair::new(1);
        assert_eq!(p.admit(0), 0);
        p.commit(50);
        // Completion at 50 is in the past by 60: no stall.
        assert_eq!(p.admit(60), 60);
        assert_eq!(p.stats().full_stalls, 0);
        assert_eq!(p.stats().max_inflight, 1);
    }

    #[test]
    fn stats_total_sums_pairs() {
        let mut q = NvmeQueues::new(NvmeQueueConfig { queues: 2, depth: 1 });
        let a = q.pair_for_client(0);
        let b = q.pair_for_client(1);
        assert_ne!(a, b);
        let t = q.pair_mut(a).admit(0);
        q.pair_mut(a).commit(t + 10);
        let t = q.pair_mut(b).admit(0);
        q.pair_mut(b).commit(t + 20);
        let total = q.stats_total();
        assert_eq!(total.submitted, 2);
        assert_eq!(total.completed, 2);
        assert_eq!(total.max_inflight, 1);
    }

    #[test]
    fn coalesced_doorbells_sum_across_pairs() {
        let mut q = NvmeQueues::new(NvmeQueueConfig { queues: 2, depth: 4 });
        q.pair_mut(0).note_coalesced(3);
        q.pair_mut(1).note_coalesced(7);
        assert_eq!(q.pair(0).stats().coalesced_doorbells, 3);
        assert_eq!(q.stats_total().coalesced_doorbells, 10);
    }
}
