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
//! history. A binary search skips that prefix in O(log n), the walk then
//! visits only the intervals that can still hold the job back, and the
//! reservation is a `VecDeque` insert at index k, O(min(k, n − k)).
//! Under queued load arrivals land near the tail, so the walk is a few
//! intervals and so is the insert.
//!
//! History is forgotten behind a *horizon*, never by count:
//! [`Server::forget_before`] drops what ends at or before a time no later
//! job arrives before (the "safe time" of conservative parallel DES), so
//! every placement equals the unbounded history's. The store advances it
//! (`CosmosPlatform::advance_horizon`) at each serial op's entry and each
//! queued command's dispatch.

use crate::SimNs;
use std::collections::VecDeque;

/// A single first-come-first-served resource with a gap-aware timeline.
#[derive(Debug, Clone, Default)]
pub struct Server {
    /// Disjoint busy intervals `(start, end)`, sorted by start (hence by
    /// end, which `schedule`'s binary search relies on) and coalesced
    /// when abutting.
    reserved: VecDeque<(SimNs, SimNs)>,
    /// End of the last forgotten reservation, which no backfill arrival
    /// may precede; `available_at` once everything is forgotten.
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
        debug_assert!(!self.backfill || arrival >= self.floor, "backfill arrival below the floor");
        let mut start = arrival;
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
        (start, finish)
    }

    /// Drop the reservations that end at or before `horizon`, a time no
    /// later job arrives before. `floor` becomes the last dropped end, not
    /// `horizon`, so `available_at` does not move.
    pub fn forget_before(&mut self, horizon: SimNs) {
        let n = self.reserved.partition_point(|&(_, e)| e <= horizon);
        if n > 0 {
            self.floor = self.reserved[n - 1].1;
            self.reserved.drain(..n);
        }
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
    pub(crate) fn available_at(&self) -> SimNs {
        self.reserved.back().map_or(self.floor, |&(_, e)| e)
    }

    /// Total time this server has been busy.
    pub fn busy_total(&self) -> SimNs {
        self.busy_total
    }

    /// Utilization over the horizon `[0, now]`.
    #[cfg(test)]
    pub(crate) fn utilization(&self, now: SimNs) -> f64 {
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
    pub(crate) server: Server,
    /// Picoseconds per byte (ps keeps sub-ns rates exact in integers).
    ps_per_byte: u64,
}

impl BandwidthLink {
    /// Create a link with the given throughput in bytes per second.
    pub(crate) fn new(bytes_per_sec: f64) -> Self {
        assert!(bytes_per_sec > 0.0);
        Self { server: Server::new(), ps_per_byte: (1e12 / bytes_per_sec).round() as u64 }
    }

    /// Service duration for `bytes`.
    pub(crate) fn duration_for(&self, bytes: u64) -> SimNs {
        (bytes * self.ps_per_byte).div_ceil(1000)
    }

    /// Schedule a transfer of `bytes` arriving at `arrival`;
    /// returns `(start, finish)`.
    pub fn transfer(&mut self, arrival: SimNs, bytes: u64) -> (SimNs, SimNs) {
        let d = self.duration_for(bytes);
        self.server.schedule(arrival, d)
    }

    /// Total time this link has been busy serving transfers.
    pub(crate) fn busy_total(&self) -> SimNs {
        self.server.busy_total()
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
            // arrivals, queued bursts and idle gaps that never abut. Each
            // arrival is also the backfill server's horizon, so it
            // forgets as it goes.
            for _ in 0..2_048 {
                arrival += rng.gen_u64(16);
                backfill.forget_before(arrival);
                let duration = 1 + rng.gen_u64(8);
                assert_eq!(
                    strict.schedule(arrival, duration),
                    backfill.schedule(arrival, duration),
                    "seed {seed}, arrival {arrival}, duration {duration}"
                );
            }
            assert!(backfill.floor > 0, "seed {seed} never forgot an interval");
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
        /// that the binary search in [`Server::schedule`] replaced. The
        /// reference never forgets.
        fn schedule_linear(&mut self, arrival: SimNs, duration: SimNs) -> (SimNs, SimNs) {
            let mut start = arrival;
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

    /// The binary search over a history forgotten behind a horizon places
    /// every job of a seeded non-monotone trace exactly where the linear
    /// walk over the never-forgotten history does. The trace is drawn
    /// first, against the reference, so that each step's horizon can be
    /// the earliest arrival still to come.
    #[test]
    fn binary_search_places_every_job_like_the_linear_walk() {
        for seed in 0..8 {
            let mut rng = crate::faults::FaultRng::new(seed);
            let mut slow = Server::new();
            slow.set_backfill(true);
            // (toggle backfill first, arrival, duration, reference placement)
            let mut trace = Vec::new();
            let mut cursor = 0;
            for _ in 0..8_192 {
                let toggle = rng.gen_u64(128) == 0;
                if toggle {
                    slow.set_backfill(!slow.backfill);
                }
                let r = &slow.reserved;
                // One of the 64 newest reservations, so that the trace
                // reaches a bounded distance back.
                let pick = r.len().saturating_sub(1 + rng.gen_u64(64) as usize);
                let (arrival, duration) = match rng.gen_u64(16) {
                    // Sparse jobs moving forward: gaps that never abut,
                    // so the history keeps growing.
                    0..=5 => {
                        cursor += 1 + rng.gen_u64(40);
                        (cursor, 1 + rng.gen_u64(8))
                    }
                    // Non-monotone arrivals jumping up to 2 000 ns back
                    // into gaps.
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
                    _ => (slow.available_at(), 1 + rng.gen_u64(3)),
                };
                trace.push((toggle, arrival, duration, slow.schedule_linear(arrival, duration)));
            }
            // horizon[i]: the earliest arrival of steps i.. .
            let mut horizon = vec![SimNs::MAX; trace.len() + 1];
            for (i, &(_, arrival, _, _)) in trace.iter().enumerate().rev() {
                horizon[i] = horizon[i + 1].min(arrival);
            }
            let mut fast = Server::new();
            fast.set_backfill(true);
            let (mut floors, mut toggles, mut peak) = (0, 0, 0);
            for (step, &(toggle, arrival, duration, placed)) in trace.iter().enumerate() {
                if toggle {
                    fast.set_backfill(!fast.backfill);
                    toggles += 1;
                }
                let floor = fast.floor;
                fast.forget_before(horizon[step]);
                floors += usize::from(fast.floor != floor);
                let ctx =
                    format!("seed {seed}, step {step}, arrival {arrival}, duration {duration}");
                assert_eq!(fast.schedule(arrival, duration), placed, "{ctx}");
                fast.assert_timeline_invariant(&ctx);
                peak = peak.max(fast.reserved.len());
            }
            assert!(toggles >= 2, "seed {seed}: backfill toggled {toggles} times");
            assert!(floors >= 256, "seed {seed}: the horizon moved the floor {floors} times");
            assert!(
                16 * peak < slow.reserved.len(),
                "seed {seed}: {peak} intervals tracked at peak, {} in the whole history",
                slow.reserved.len()
            );
            assert_eq!(fast.available_at(), slow.available_at(), "seed {seed}");
            assert_eq!(fast.busy_total(), slow.busy_total(), "seed {seed}");
            let kept = slow.reserved.len() - fast.reserved.len();
            assert!(fast.reserved.iter().eq(slow.reserved.range(kept..)), "seed {seed}");
        }
    }

    #[test]
    fn abutting_reservations_coalesce() {
        let mut s = Server::new();
        for i in 0..5_120 {
            s.schedule(i * 10, 10);
        }
        // Back-to-back jobs merge into one interval, so a dense
        // timeline stays one interval long.
        assert_eq!(s.reserved.len(), 1);
        assert_eq!(s.available_at(), 5_120 * 10);
        assert_eq!(s.schedule(3, 4), (s.available_at() - 4, s.available_at()));
    }

    #[test]
    fn a_trailing_horizon_bounds_the_history_to_its_window() {
        let mut s = Server::new();
        s.set_backfill(true);
        // Sparse jobs (gaps never abut) 100 ns apart, with the horizon
        // 1 000 ns behind each arrival: only the ten intervals that end
        // inside that window stay, however long the stream runs.
        for i in 0..100_000u64 {
            let arrival = i * 100;
            let horizon = arrival.saturating_sub(1_000);
            s.forget_before(horizon);
            assert_eq!(s.schedule(arrival, 1), (arrival, arrival + 1));
            assert_eq!(s.reserved.len(), (i as usize + 1).min(11), "step {i}");
            assert!(s.reserved[0].1 > horizon, "step {i}");
        }
        assert_eq!(s.floor, 99_988 * 100 + 1, "the end of the last forgotten interval");
        assert_eq!(s.available_at(), 99_999 * 100 + 1);
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
    }

    #[test]
    fn sub_ns_rates_accumulate_without_drift() {
        // 1.6 GB/s → 0.625 ns per byte; 8-byte beats must not round to 0.
        let mut l = BandwidthLink::new(1.6e9);
        let (_, f) = l.transfer(0, 8);
        assert_eq!(f, 5);
    }
}
