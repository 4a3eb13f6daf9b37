//! Queueing primitives: FCFS servers and bandwidth links.
//!
//! All platform resources (flash channel buses, controller queues, the
//! DRAM port, the ARM core, the NVMe link) are modeled as single FCFS
//! servers: a request arriving at time `t` starts at the first point at
//! or after `t` where the resource is free for its whole service time.
//! This is the classic "resource timeline" discrete-event style —
//! deterministic and exact for the pipelined bulk transfers that
//! dominate the paper's workloads.
//!
//! The timeline can be *gap-aware*: reservations are kept as disjoint
//! busy intervals, and with [`Server::set_backfill`] enabled a job may
//! start in an idle gap that lies before a later reservation. The
//! default is the strict conveyor (`start = max(arrival, busy_until)`),
//! which every serial one-op-at-a-time code path uses — so all paper
//! figures are computed exactly as before, byte for byte. The queued
//! engine (`nkv::queue`) switches the device into backfill mode for the
//! duration of a multi-client run: there, command N+1 may need a
//! resource at a wall time earlier than command N's *future*
//! reservation on it — e.g. the ARM core is touched at the start
//! (memtable probe) and end (PE config writes) of every GET, and under
//! the strict conveyor each command's first ARM job would queue behind
//! its predecessor's last one even though the core sits idle in
//! between, serializing the whole device. Backfill restores the
//! overlap a real pipelined device has. For monotonically
//! non-decreasing arrivals and positive service times the two modes
//! coincide (a usable gap at or after a new arrival would require an
//! earlier job to have started later than the new arrival; held by the
//! seeded test `monotone_arrivals_make_strict_and_backfill_coincide`,
//! which also pins the one exception: a zero-length job tied with the
//! start of a reservation is placed in front of it by backfill and
//! behind it by the conveyor).
//!
//! Both modes stay, because one serial path is *not* monotone: the
//! serial hardware SCAN issues every flash read at scan start and then
//! walks the blocks in host order, so on the shared DRAM port block
//! `i + 1`'s flash-DMA staging write arrives before block `i`'s PE
//! store, which the walk has already reserved. Under the conveyor the
//! staging write queues behind that store; backfill would drop it into
//! the gap in front. Measured with backfill forced on and nothing else
//! changed: 2400 such placements in `repro fig7b --scale 0.0625`,
//! 7 lines of `repro_output.txt` move (Fig. 7b HW 5.516 -> 5.510 s
//! for \[1\] and 5.515 -> 5.512 s for ours, A1 4.0421 -> 4.0285 s, A3
//! 0.0632/0.0630 -> 0.0629/0.0628 s) and so do the `scan_bulk` and
//! `ingest_churn` digests in `sim_digests_quick.txt`. The flash
//! controllers see arrivals go backwards too (reads striped across
//! channels), but their timelines are dense and no gap is ever usable.
//!
//! Cost of a backfill placement: the reserved intervals are disjoint
//! and sorted by start, so their *ends* are sorted too, and the
//! intervals that end at or before the job's start form a prefix of the
//! history. A binary search skips that prefix in O(log n) (n ≤ 512),
//! the walk then visits only the intervals that can still hold the job
//! back, and the reservation is a `VecDeque` insert at index k,
//! O(min(k, n − k)). Under queued load arrivals land near the tail, so
//! the walk is a few intervals and so is the insert.

use crate::SimNs;
use std::collections::VecDeque;

/// Cap on remembered busy intervals per server. When exceeded, the
/// oldest interval is folded into a "no job before here" floor, which
/// keeps memory bounded on long runs. A backfill arrival below the
/// floor is clamped to it, so the cap is part of the timing model, not
/// only a memory bound: no gap more than 512 intervals back is ever
/// used. Every committed artifact regenerates byte for byte with an
/// unbounded history, but the full-scale benchmark reaches that depth:
/// in a 2-second seed-42 run, 3 709 of 4.55 M backfill placements on
/// `queued_mixed` and 198 of 0.94 M on `scan_bulk` are clamped, and
/// with an unbounded history `scan_bulk`'s 4-stream hardware scan pair
/// takes 0.778 instead of 1.582 simulated seconds.
const MAX_TRACKED_INTERVALS: usize = 512;

/// A single first-come-first-served resource with a gap-aware timeline.
#[derive(Debug, Clone, Default)]
pub struct Server {
    /// Disjoint busy intervals `(start, end)`, sorted by start (hence by
    /// end, which `schedule`'s binary search relies on) and coalesced
    /// when abutting.
    reserved: VecDeque<(SimNs, SimNs)>,
    /// No job may be placed before this time (pruned-history horizon).
    floor: SimNs,
    /// Total busy time accumulated (for utilization reporting).
    busy_total: SimNs,
    /// When set, jobs may start in idle gaps before later reservations;
    /// when clear (default), the strict `busy_until` conveyor applies.
    backfill: bool,
}

impl Server {
    /// A server idle since time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Switch between the strict conveyor (`false`, default) and
    /// gap-aware backfill scheduling (`true`). Toggling is safe at any
    /// point: existing reservations stay as they are.
    pub fn set_backfill(&mut self, on: bool) {
        self.backfill = on;
    }

    /// Schedule a job arriving at `arrival` with the given service
    /// `duration`: the job starts at the first instant `>= arrival`
    /// where the resource is continuously free for `duration` (in
    /// backfill mode), or at `max(arrival, busy_until)` (strict mode).
    /// Returns `(start, finish)`.
    ///
    /// Backfill relies on the reservations' ends being sorted (they are
    /// disjoint and sorted by start): it finds the first interval ending
    /// after the job's start in O(log n), walks on from there to the
    /// first gap that fits, and inserts in O(min(k, n − k)) at index k.
    pub fn schedule(&mut self, arrival: SimNs, duration: SimNs) -> (SimNs, SimNs) {
        let mut start = arrival.max(self.floor);
        let mut idx = self.reserved.len();
        if self.backfill {
            let first = self.reserved.partition_point(|&(_, e)| e <= start);
            for (i, &(s, e)) in self.reserved.range(first..).enumerate() {
                if start + duration <= s {
                    idx = first + i;
                    break;
                }
                start = start.max(e);
            }
        } else {
            start = start.max(self.available_at());
        }
        let finish = start + duration;
        self.insert_at(idx, start, finish);
        self.busy_total += duration;
        while self.reserved.len() > MAX_TRACKED_INTERVALS {
            if let Some((_, e)) = self.reserved.pop_front() {
                self.floor = e;
            }
        }
        (start, finish)
    }

    /// Insert `(start, finish)` before index `idx`, coalescing with
    /// abutting neighbors so dense timelines stay short.
    fn insert_at(&mut self, idx: usize, start: SimNs, finish: SimNs) {
        if start == finish {
            return; // zero-length jobs reserve nothing
        }
        let joins_prev = idx > 0 && self.reserved[idx - 1].1 == start;
        let joins_next = idx < self.reserved.len() && self.reserved[idx].0 == finish;
        match (joins_prev, joins_next) {
            (true, true) => {
                self.reserved[idx - 1].1 = self.reserved[idx].1;
                self.reserved.remove(idx);
            }
            (true, false) => self.reserved[idx - 1].1 = finish,
            (false, true) => self.reserved[idx].0 = start,
            (false, false) => self.reserved.insert(idx, (start, finish)),
        }
    }

    /// Time after which the resource is free indefinitely (end of the
    /// last reservation). Earlier idle gaps may still accept jobs.
    pub fn available_at(&self) -> SimNs {
        self.reserved.back().map_or(self.floor, |&(_, e)| e)
    }

    /// Total time this server has been busy.
    pub fn busy_total(&self) -> SimNs {
        self.busy_total
    }

    /// Utilization over the horizon `[0, now]`.
    pub fn utilization(&self, now: SimNs) -> f64 {
        if now == 0 {
            0.0
        } else {
            self.busy_total as f64 / now as f64
        }
    }
}

/// A server whose service time is proportional to the transferred bytes.
#[derive(Debug, Clone)]
pub struct BandwidthLink {
    server: Server,
    /// Picoseconds per byte (ps keeps sub-ns rates exact in integers).
    ps_per_byte: u64,
    bytes_total: u64,
}

impl BandwidthLink {
    /// Create a link with the given throughput in bytes per second.
    pub fn new(bytes_per_sec: f64) -> Self {
        assert!(bytes_per_sec > 0.0);
        Self {
            server: Server::new(),
            ps_per_byte: (1e12 / bytes_per_sec).round() as u64,
            bytes_total: 0,
        }
    }

    /// Service duration for `bytes`.
    pub fn duration_for(&self, bytes: u64) -> SimNs {
        (bytes * self.ps_per_byte).div_ceil(1000)
    }

    /// Switch between strict conveyor and gap-aware backfill (see
    /// [`Server::set_backfill`]).
    pub fn set_backfill(&mut self, on: bool) {
        self.server.set_backfill(on);
    }

    /// Schedule a transfer of `bytes` arriving at `arrival`;
    /// returns `(start, finish)`.
    pub fn transfer(&mut self, arrival: SimNs, bytes: u64) -> (SimNs, SimNs) {
        self.bytes_total += bytes;
        let d = self.duration_for(bytes);
        self.server.schedule(arrival, d)
    }

    /// Time after which the link is free indefinitely.
    pub fn available_at(&self) -> SimNs {
        self.server.available_at()
    }

    /// Total bytes moved over this link.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_total
    }

    /// Total time this link has been busy serving transfers.
    pub fn busy_total(&self) -> SimNs {
        self.server.busy_total()
    }

    /// Link utilization over `[0, now]`.
    pub fn utilization(&self, now: SimNs) -> f64 {
        self.server.utilization(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fcfs_back_to_back() {
        let mut s = Server::new();
        assert_eq!(s.schedule(0, 10), (0, 10));
        assert_eq!(s.schedule(3, 5), (10, 15), "second job queues behind the first");
        assert_eq!(s.schedule(100, 5), (100, 105), "idle gap is not consumed");
        assert_eq!(s.busy_total(), 20);
    }

    #[test]
    fn strict_mode_never_backfills() {
        let mut s = Server::new();
        s.schedule(0, 15); // [0, 15)
        s.schedule(100, 5); // [100, 105)
        assert_eq!(s.schedule(16, 2), (105, 107), "conveyor ignores the gap");
    }

    #[test]
    fn backfill_uses_idle_gaps_between_reservations() {
        let mut s = Server::new();
        s.set_backfill(true);
        s.schedule(0, 15); // [0, 15)
        s.schedule(100, 5); // [100, 105)
                            // A job arriving in the gap fits there instead of queueing
                            // behind the future reservation.
        assert_eq!(s.schedule(16, 2), (16, 18), "gap accepts the job");
        // One that does not fit before the next reservation queues
        // behind it.
        assert_eq!(s.schedule(20, 90), (105, 195), "oversized job skips the gap");
        assert_eq!(s.busy_total(), 15 + 5 + 2 + 90);
    }

    #[test]
    fn monotone_arrivals_make_strict_and_backfill_coincide() {
        for seed in 0..32 {
            let mut rng = crate::faults::FaultRng::new(seed);
            let (mut strict, mut backfill) = (Server::new(), Server::new());
            backfill.set_backfill(true);
            let mut arrival = 0;
            // Steps of 0..16 against durations of 1..=8 mix repeated
            // arrivals, queued bursts and idle gaps that never abut, so
            // the timelines grow past the pruning cap.
            for _ in 0..4 * MAX_TRACKED_INTERVALS {
                arrival += rng.gen_u64(16);
                let duration = 1 + rng.gen_u64(8);
                assert_eq!(
                    strict.schedule(arrival, duration),
                    backfill.schedule(arrival, duration),
                    "seed {seed}, arrival {arrival}, duration {duration}"
                );
            }
            assert!(backfill.floor > 0, "seed {seed} never reached the pruning cap");
        }
        // Positive durations are needed: a zero-length job reserves
        // nothing, so it "fits" in front of a reservation that starts
        // at its own arrival time.
        let (mut strict, mut backfill) = (Server::new(), Server::new());
        backfill.set_backfill(true);
        assert_eq!(strict.schedule(5, 3), backfill.schedule(5, 3));
        assert_eq!(strict.schedule(5, 0), (8, 8));
        assert_eq!(backfill.schedule(5, 0), (5, 5));
    }

    impl Server {
        /// Reference placement: the linear walk over the whole history
        /// that the binary search in [`Server::schedule`] replaced.
        fn schedule_linear(&mut self, arrival: SimNs, duration: SimNs) -> (SimNs, SimNs) {
            let mut start = arrival.max(self.floor);
            let mut idx = self.reserved.len();
            if self.backfill {
                for (i, &(s, e)) in self.reserved.iter().enumerate() {
                    if e <= start {
                        continue;
                    }
                    if start + duration <= s {
                        idx = i;
                        break;
                    }
                    start = start.max(e);
                }
            } else {
                start = start.max(self.available_at());
            }
            let finish = start + duration;
            self.insert_at(idx, start, finish);
            self.busy_total += duration;
            while self.reserved.len() > MAX_TRACKED_INTERVALS {
                if let Some((_, e)) = self.reserved.pop_front() {
                    self.floor = e;
                }
            }
            (start, finish)
        }

        /// Reservations are non-empty, at or after the floor, sorted,
        /// disjoint and coalesced (no two abut).
        fn assert_timeline_invariant(&self, ctx: &str) {
            let mut prev_end = None;
            for &(s, e) in &self.reserved {
                assert!(s < e, "{ctx}: empty interval ({s}, {e})");
                assert!(s >= self.floor, "{ctx}: ({s}, {e}) before floor {}", self.floor);
                if let Some(p) = prev_end {
                    assert!(p < s, "{ctx}: ({s}, {e}) overlaps or abuts an interval ending at {p}");
                }
                prev_end = Some(e);
            }
        }
    }

    #[test]
    fn binary_search_places_every_job_like_the_linear_walk() {
        for seed in 0..8 {
            let mut rng = crate::faults::FaultRng::new(seed);
            let (mut fast, mut slow) = (Server::new(), Server::new());
            let mut backfill = true;
            fast.set_backfill(backfill);
            slow.set_backfill(backfill);
            let (mut cursor, mut floors, mut toggles) = (0, 0, 0);
            for step in 0..16 * MAX_TRACKED_INTERVALS {
                if rng.gen_u64(128) == 0 {
                    backfill = !backfill;
                    fast.set_backfill(backfill);
                    slow.set_backfill(backfill);
                    toggles += 1;
                }
                let r = &slow.reserved;
                let pick = rng.gen_u64(r.len() as u64) as usize;
                let (arrival, duration) = match rng.gen_u64(16) {
                    // Sparse jobs moving forward: gaps that never abut,
                    // so the history grows through the cap.
                    0..=5 => {
                        cursor += 1 + rng.gen_u64(40);
                        (cursor, 1 + rng.gen_u64(8))
                    }
                    // Non-monotone arrivals jumping back into gaps, some
                    // of them below the floor.
                    6..=8 => (cursor.saturating_sub(rng.gen_u64(2000)), 1 + rng.gen_u64(6)),
                    // A job that exactly fills a gap.
                    9 if r.len() >= 2 => {
                        let i = pick.min(r.len() - 2);
                        (r[i].1, r[i + 1].0 - r[i].1)
                    }
                    // Zero-length jobs, anywhere or tied with the start
                    // of a reservation.
                    10 => (cursor.saturating_sub(rng.gen_u64(500)), 0),
                    11 if !r.is_empty() => (r[pick].0, 0),
                    // Jobs abutting a reservation's end or start.
                    12 if !r.is_empty() => (r[pick].1, 1 + rng.gen_u64(4)),
                    13..=15 if !r.is_empty() => {
                        let d = 1 + rng.gen_u64(4);
                        (r[pick].0.saturating_sub(d), d)
                    }
                    _ => (fast.available_at(), 1 + rng.gen_u64(3)),
                };
                let floor = slow.floor;
                let ctx =
                    format!("seed {seed}, step {step}, arrival {arrival}, duration {duration}");
                assert_eq!(
                    fast.schedule(arrival, duration),
                    slow.schedule_linear(arrival, duration),
                    "{ctx}"
                );
                fast.assert_timeline_invariant(&ctx);
                floors += usize::from(slow.floor != floor);
            }
            assert!(toggles >= 2, "seed {seed}: backfill toggled {toggles} times");
            assert!(
                floors >= 2 * MAX_TRACKED_INTERVALS,
                "seed {seed}: the history turned over only {floors} times"
            );
            assert_eq!(fast.available_at(), slow.available_at(), "seed {seed}");
            assert_eq!(fast.busy_total(), slow.busy_total(), "seed {seed}");
            assert_eq!(fast.floor, slow.floor, "seed {seed}");
            assert_eq!(fast.reserved, slow.reserved, "seed {seed}");
        }
    }

    #[test]
    fn abutting_reservations_coalesce() {
        let mut s = Server::new();
        for i in 0..10 * MAX_TRACKED_INTERVALS as u64 {
            s.schedule(i * 10, 10);
        }
        // Back-to-back jobs merge into one interval, so dense timelines
        // never hit the pruning cap.
        assert_eq!(s.available_at(), 10 * MAX_TRACKED_INTERVALS as u64 * 10);
        assert_eq!(s.schedule(3, 4), (s.available_at() - 4, s.available_at()));
    }

    #[test]
    fn pruning_bounds_memory_and_stays_causal() {
        let mut s = Server::new();
        s.set_backfill(true);
        // Sparse jobs (gaps never abut) force interval growth past the
        // cap; the oldest gaps become unusable but scheduling after the
        // horizon is unaffected.
        for i in 0..2 * MAX_TRACKED_INTERVALS as u64 {
            s.schedule(i * 100, 1);
        }
        let tail = s.available_at();
        let (start, finish) = s.schedule(tail + 50, 1);
        assert_eq!((start, finish), (tail + 50, tail + 51));
    }

    #[test]
    fn utilization_accounts_busy_fraction() {
        let mut s = Server::new();
        s.schedule(0, 50);
        assert!((s.utilization(100) - 0.5).abs() < 1e-12);
        assert_eq!(s.utilization(0), 0.0);
    }

    #[test]
    fn bandwidth_link_duration_is_proportional() {
        let mut l = BandwidthLink::new(200e6); // 200 MB/s
        assert_eq!(l.duration_for(200_000_000), 1_000_000_000);
        let (s0, f0) = l.transfer(0, 32 * 1024);
        assert_eq!(s0, 0);
        assert_eq!(f0, 163_840); // 32 KiB at 5 ns/B
        let (s1, _) = l.transfer(0, 1);
        assert_eq!(s1, f0, "transfers serialize on the link");
        assert_eq!(l.bytes_total(), 32 * 1024 + 1);
    }

    #[test]
    fn sub_ns_rates_accumulate_without_drift() {
        // 1.6 GB/s → 0.625 ns per byte; 8-byte beats must not round to 0.
        let mut l = BandwidthLink::new(1.6e9);
        let (_, f) = l.transfer(0, 8);
        assert_eq!(f, 5);
    }
}
