//! The C-AMAT analyzer of the paper's Fig 4: an online HCD/MCD detector.
//!
//! The paper proposes a hardware detection system composed of a **Hit
//! Concurrency Detector (HCD)** — which counts total hit cycles, records
//! hit phases, and tells the miss side whether the current cycle has any
//! hit activity — and a **Miss Concurrency Detector (MCD)** — which,
//! combining the HCD's signal with the outstanding-miss information held
//! in the MSHRs, accumulates pure-miss cycles per outstanding miss.
//!
//! [`CamatDetector`] is that structure in software, with the same O(1)
//! per-cycle cost the hardware would have: the MCD keeps one cumulative
//! *pure-epoch* counter; each miss records the epoch when it becomes
//! outstanding, and its pure-miss cycle count is the epoch delta at
//! retirement (a miss is outstanding continuously, and every pure cycle
//! in that window counts for every outstanding miss).
//!
//! Two driving styles:
//!
//! * **counts API** (the fast path used by `c2-sim`):
//!   [`CamatDetector::observe_cycle_counts`], [`CamatDetector::miss_begins`]
//!   and [`CamatDetector::retire_counted`], with
//!   [`CamatDetector::observe_cycle_counts_n`] settling a run of cycles
//!   with unchanged counts in O(1). `miss_begins` hands the caller the
//!   miss's start epoch as a [`MissEpoch`] stamp, which the caller keeps
//!   with the access and hands back at retirement, so the path keeps no
//!   per-miss table and hashes nothing;
//! * **slice API** ([`CamatDetector::observe_cycle`] +
//!   [`CamatDetector::retire_access`]) taking the explicit
//!   outstanding-miss id list each cycle — used by the test-oracle
//!   replay of timelines, where a miss's outstanding window is inferred
//!   from its appearances. It keys misses by id in hash maps.

use std::collections::HashMap;

use crate::timeline::{CamatMeasurement, Timeline};

/// Opaque identifier for an in-flight miss (e.g. its MSHR slot or a
/// monotonically increasing access id).
pub type MissId = u64;

/// The pure-miss epoch at which a counts-API miss became outstanding:
/// returned by [`CamatDetector::miss_begins`], handed back to
/// [`CamatDetector::retire_counted`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MissEpoch(u64);

/// Online HCD/MCD detector (paper Fig 4).
#[derive(Debug, Clone, Default)]
pub struct CamatDetector {
    // HCD state
    hit_active_cycles: u64,
    hit_access_cycles: u64,
    // MCD state
    pure_miss_cycles: u64,
    pure_miss_access_cycles: u64,
    /// Cumulative pure-miss cycle count (the epoch counter).
    pure_epoch: u64,
    /// Counts-API misses begun and not yet retired: how many, the sum
    /// of their start epochs, and how many began at the current epoch
    /// (and so have no pure cycle yet). `finish` folds them in from
    /// these aggregates alone.
    stamped_outstanding: u64,
    stamped_epoch_sum: u64,
    stamped_at_epoch: u64,
    /// Epoch at which each outstanding slice-API miss began.
    start_epoch: HashMap<MissId, u64>,
    /// Pure-cycle counts of misses whose outstanding window closed
    /// before retirement (slice-API only).
    closed: HashMap<MissId, u64>,
    /// Previous cycle's outstanding set (slice-API only).
    prev_ids: Vec<MissId>,
    completed_pure_misses: u64,
    completed_pure_cycle_total: u64,
    // Access bookkeeping
    accesses: u64,
    misses: u64,
    hit_time_total: u64,
    miss_penalty_total: u64,
    memory_active_cycles: u64,
    cycles_seen: u64,
}

/// Final report from the detector; convertible into a
/// [`CamatMeasurement`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorReport {
    /// The measured parameters.
    pub measurement: CamatMeasurement,
    /// Total cycles the detector observed (active or not).
    pub cycles_observed: u64,
}

impl CamatDetector {
    /// New, empty detector.
    pub fn new() -> Self {
        CamatDetector::default()
    }

    /// Register that a miss is outstanding from this point on (counts
    /// API). The returned stamp goes back to
    /// [`CamatDetector::retire_counted`] when the access retires, once.
    pub fn miss_begins(&mut self) -> MissEpoch {
        self.stamped_outstanding += 1;
        self.stamped_epoch_sum += self.pure_epoch;
        self.stamped_at_epoch += 1;
        MissEpoch(self.pure_epoch)
    }

    /// Feed one cycle of observation by aggregate counts (fast path):
    ///
    /// * `hits_in_flight` — accesses currently in their hit phase;
    /// * `outstanding_misses` — number of misses currently outstanding.
    #[inline]
    pub fn observe_cycle_counts(&mut self, hits_in_flight: u32, outstanding_misses: u32) {
        self.observe_cycle_counts_n(hits_in_flight, outstanding_misses, 1);
    }

    /// Feed `cycles` consecutive cycles that all saw the same aggregate
    /// counts, in closed form: the detector ends in exactly the state
    /// `cycles` calls of [`CamatDetector::observe_cycle_counts`] would
    /// leave it in. The simulator settles a core's memory-stalled
    /// cycles this way, so its cost follows events rather than cycles.
    #[inline]
    pub fn observe_cycle_counts_n(
        &mut self,
        hits_in_flight: u32,
        outstanding_misses: u32,
        cycles: u64,
    ) {
        self.cycles_seen += cycles;
        let has_hit = hits_in_flight > 0;
        let has_miss = outstanding_misses > 0;
        if has_hit {
            self.hit_active_cycles += cycles;
            self.hit_access_cycles += hits_in_flight as u64 * cycles;
        }
        if has_miss && !has_hit && cycles > 0 {
            // Pure-miss cycles: every outstanding miss accrues one pure
            // cycle each (MCD = HCD's "no hit" signal + MSHR occupancy).
            self.pure_miss_cycles += cycles;
            self.pure_miss_access_cycles += outstanding_misses as u64 * cycles;
            self.pure_epoch += cycles;
            self.stamped_at_epoch = 0;
        }
        if has_hit || has_miss {
            self.memory_active_cycles += cycles;
        }
    }

    /// Feed one cycle of observation with the explicit outstanding-miss
    /// id list (slice API). Ids appearing for the first time begin their
    /// outstanding window; ids that vanish close theirs.
    pub fn observe_cycle(&mut self, hits_in_flight: u32, outstanding_misses: &[MissId]) {
        // Close windows of ids that disappeared.
        if !self.prev_ids.is_empty() {
            for i in 0..self.prev_ids.len() {
                let id = self.prev_ids[i];
                if !outstanding_misses.contains(&id) {
                    if let Some(start) = self.start_epoch.remove(&id) {
                        self.closed.insert(id, self.pure_epoch - start);
                    }
                }
            }
        }
        for &id in outstanding_misses {
            self.start_epoch.entry(id).or_insert(self.pure_epoch);
        }
        self.observe_cycle_counts(hits_in_flight, outstanding_misses.len() as u32);
        self.prev_ids.clear();
        self.prev_ids.extend_from_slice(outstanding_misses);
    }

    /// Record the retirement of an access (counts API).
    ///
    /// * `hit_cycles` — cycles the access spent in its hit phase;
    /// * `miss` — `Some((began, penalty_cycles))` if the access missed,
    ///   with `began` the stamp [`CamatDetector::miss_begins`] returned.
    pub fn retire_counted(&mut self, hit_cycles: u32, miss: Option<(MissEpoch, u32)>) {
        self.record_access(hit_cycles);
        if let Some((MissEpoch(began), penalty)) = miss {
            self.record_miss(penalty);
            self.stamped_outstanding -= 1;
            self.stamped_epoch_sum -= began;
            if began == self.pure_epoch {
                self.stamped_at_epoch -= 1;
            }
            self.credit_pure(self.pure_epoch - began);
        }
    }

    /// Record the retirement of an access (slice API).
    ///
    /// * `hit_cycles` — cycles the access spent in its hit phase;
    /// * `miss` — `Some((id, penalty_cycles))` if the access missed.
    pub fn retire_access(&mut self, hit_cycles: u32, miss: Option<(MissId, u32)>) {
        self.record_access(hit_cycles);
        if let Some((id, penalty)) = miss {
            self.record_miss(penalty);
            let pure = self
                .closed
                .remove(&id)
                .or_else(|| self.start_epoch.remove(&id).map(|s| self.pure_epoch - s));
            if let Some(pure) = pure {
                self.credit_pure(pure);
            }
        }
    }

    fn record_access(&mut self, hit_cycles: u32) {
        self.accesses += 1;
        self.hit_time_total += hit_cycles as u64;
    }

    fn record_miss(&mut self, penalty: u32) {
        self.misses += 1;
        self.miss_penalty_total += penalty as u64;
    }

    /// Count a finished miss's pure cycles; a miss with none is not a
    /// pure miss.
    fn credit_pure(&mut self, pure: u64) {
        if pure > 0 {
            self.completed_pure_misses += 1;
            self.completed_pure_cycle_total += pure;
        }
    }

    /// Cycles observed so far.
    pub fn cycles_observed(&self) -> u64 {
        self.cycles_seen
    }

    /// Accesses retired so far.
    pub fn accesses_retired(&self) -> u64 {
        self.accesses
    }

    /// Produce the final report. Misses still outstanding are folded in
    /// as if they retired now.
    pub fn finish(mut self) -> DetectorReport {
        // Drain unretired misses so their pure cycles are not lost. Each
        // stamped miss earned the epochs since it began; those begun at
        // the current epoch earned none.
        self.completed_pure_misses += self.stamped_outstanding - self.stamped_at_epoch;
        self.completed_pure_cycle_total +=
            self.stamped_outstanding * self.pure_epoch - self.stamped_epoch_sum;
        for start in std::mem::take(&mut self.start_epoch).into_values() {
            self.credit_pure(self.pure_epoch - start);
        }
        for pure in std::mem::take(&mut self.closed).into_values() {
            self.credit_pure(pure);
        }
        let n = self.accesses;
        let measurement = CamatMeasurement {
            accesses: n,
            misses: self.misses,
            pure_misses: self.completed_pure_misses,
            hit_time: if n == 0 {
                0.0
            } else {
                self.hit_time_total as f64 / n as f64
            },
            hit_concurrency: if self.hit_active_cycles == 0 {
                1.0
            } else {
                self.hit_access_cycles as f64 / self.hit_active_cycles as f64
            },
            pure_miss_concurrency: if self.pure_miss_cycles == 0 {
                1.0
            } else {
                self.pure_miss_access_cycles as f64 / self.pure_miss_cycles as f64
            },
            avg_miss_penalty: if self.misses == 0 {
                0.0
            } else {
                self.miss_penalty_total as f64 / self.misses as f64
            },
            pure_avg_miss_penalty: if self.completed_pure_misses == 0 {
                0.0
            } else {
                self.completed_pure_cycle_total as f64 / self.completed_pure_misses as f64
            },
            memory_active_cycles: self.memory_active_cycles,
            hit_active_cycles: self.hit_active_cycles,
            pure_miss_cycles: self.pure_miss_cycles,
        };
        DetectorReport {
            measurement,
            cycles_observed: self.cycles_seen,
        }
    }

    /// Replay a [`Timeline`] through the detector cycle by cycle —
    /// convenience used to validate the online path against the offline
    /// measurement.
    pub fn replay(timeline: &Timeline) -> DetectorReport {
        let mut det = CamatDetector::new();
        if timeline.is_empty() {
            return det.finish();
        }
        let accesses = timeline.accesses();
        let first = accesses
            .iter()
            .map(|a| {
                a.hit_start.min(if a.miss_len > 0 {
                    a.miss_start
                } else {
                    a.hit_start
                })
            })
            .min()
            .unwrap();
        let last = accesses.iter().map(|a| a.end()).max().unwrap();
        let mut outstanding: Vec<MissId> = Vec::new();
        for cycle in first..last {
            let mut hits = 0u32;
            outstanding.clear();
            for (i, a) in accesses.iter().enumerate() {
                if cycle >= a.hit_start && cycle < a.hit_start + a.hit_len as u64 {
                    hits += 1;
                }
                if a.miss_len > 0
                    && cycle >= a.miss_start
                    && cycle < a.miss_start + a.miss_len as u64
                {
                    outstanding.push(i as MissId);
                }
            }
            det.observe_cycle(hits, &outstanding);
            // Retire accesses whose last active cycle is this one.
            for (i, a) in accesses.iter().enumerate() {
                if a.end() == cycle + 1 {
                    let miss = if a.miss_len > 0 {
                        Some((i as MissId, a.miss_len))
                    } else {
                        None
                    };
                    det.retire_access(a.hit_len, miss);
                }
            }
        }
        det.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::{AccessTiming, Timeline};

    #[test]
    fn detector_matches_offline_on_fig1() {
        let tl = Timeline::paper_fig1();
        let offline = tl.measure();
        let online = CamatDetector::replay(&tl).measurement;
        assert_eq!(online.accesses, offline.accesses);
        assert_eq!(online.misses, offline.misses);
        assert_eq!(online.pure_misses, offline.pure_misses);
        assert!((online.camat() - offline.camat()).abs() < 1e-12);
        assert!((online.amat() - offline.amat()).abs() < 1e-12);
        assert!((online.hit_concurrency - offline.hit_concurrency).abs() < 1e-12);
        assert!((online.pure_miss_concurrency - offline.pure_miss_concurrency).abs() < 1e-12);
    }

    #[test]
    fn detector_matches_offline_on_random_timelines() {
        let mut state = 777u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for round in 0..30 {
            let mut tl = Timeline::new();
            let n = 2 + (next() % 15) as usize;
            for _ in 0..n {
                let start = next() % 30;
                let h = 1 + (next() % 3) as u32;
                if next() % 2 == 0 {
                    let pen = 1 + (next() % 6) as u32;
                    tl.push(AccessTiming::miss(start, h, start + h as u64, pen));
                } else {
                    tl.push(AccessTiming::hit(start, h));
                }
            }
            let offline = tl.measure();
            let online = CamatDetector::replay(&tl).measurement;
            assert!(
                (online.camat() - offline.camat()).abs() < 1e-9,
                "round {round}: online {} offline {}",
                online.camat(),
                offline.camat()
            );
            assert_eq!(online.pure_misses, offline.pure_misses, "round {round}");
            assert_eq!(
                online.memory_active_cycles, offline.memory_active_cycles,
                "round {round}"
            );
        }
    }

    #[test]
    fn manual_feed_pure_miss_accounting() {
        let mut det = CamatDetector::new();
        // Cycle 0: one hit in flight, miss id 7 outstanding -> not pure.
        det.observe_cycle(1, &[7]);
        // Cycle 1-2: only miss 7 -> 2 pure cycles.
        det.observe_cycle(0, &[7]);
        det.observe_cycle(0, &[7]);
        det.retire_access(1, None); // the hit
        det.retire_access(1, Some((7, 3)));
        let r = det.finish();
        assert_eq!(r.measurement.pure_misses, 1);
        assert!((r.measurement.pure_avg_miss_penalty - 2.0).abs() < 1e-12);
        assert_eq!(r.measurement.memory_active_cycles, 3);
        assert_eq!(r.cycles_observed, 3);
    }

    #[test]
    fn counts_api_matches_slice_api() {
        // Drive the same scenario through both APIs.
        let mut slice = CamatDetector::new();
        slice.observe_cycle(2, &[]);
        slice.observe_cycle(0, &[1, 2]);
        slice.observe_cycle(0, &[1, 2]);
        slice.observe_cycle(1, &[2]);
        slice.retire_access(1, Some((1, 3)));
        slice.retire_access(1, Some((2, 4)));
        slice.retire_access(1, None);
        let a = slice.finish();

        let mut counts = CamatDetector::new();
        counts.observe_cycle_counts(2, 0);
        let one = counts.miss_begins();
        let two = counts.miss_begins();
        counts.observe_cycle_counts(0, 2);
        counts.observe_cycle_counts(0, 2);
        // Miss 1 retires before cycle 3 in the counts world.
        counts.retire_counted(1, Some((one, 3)));
        counts.observe_cycle_counts(1, 1);
        counts.retire_counted(1, Some((two, 4)));
        counts.retire_counted(1, None);
        let b = counts.finish();

        assert_eq!(a.measurement.pure_misses, b.measurement.pure_misses);
        assert!((a.measurement.camat() - b.measurement.camat()).abs() < 1e-12);
        assert_eq!(
            a.measurement.memory_active_cycles,
            b.measurement.memory_active_cycles
        );
    }

    #[test]
    fn miss_window_closes_when_id_disappears() {
        let mut det = CamatDetector::new();
        det.observe_cycle(0, &[9]); // pure cycle for 9
        det.observe_cycle(0, &[]); // 9 vanished; later pure cycles are not its
        det.observe_cycle(0, &[11]); // pure cycle for 11 only
        det.retire_access(1, Some((9, 1)));
        det.retire_access(1, Some((11, 1)));
        let r = det.finish();
        assert_eq!(r.measurement.pure_misses, 2);
        // Each earned exactly 1 pure cycle.
        assert!((r.measurement.pure_avg_miss_penalty - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unretired_misses_are_drained_at_finish() {
        let mut det = CamatDetector::new();
        det.observe_cycle(0, &[1]);
        det.observe_cycle(0, &[1]);
        // Never retired — finish() must still count its pure cycles.
        let r = det.finish();
        assert_eq!(r.measurement.pure_misses, 1);
        assert!((r.measurement.pure_avg_miss_penalty - 2.0).abs() < 1e-12);
    }

    #[test]
    fn idle_cycles_do_not_count_as_active() {
        let mut det = CamatDetector::new();
        det.observe_cycle(0, &[]);
        det.observe_cycle(0, &[]);
        det.observe_cycle(2, &[]);
        det.retire_access(1, None);
        det.retire_access(1, None);
        let r = det.finish();
        assert_eq!(r.measurement.memory_active_cycles, 1);
        assert_eq!(r.cycles_observed, 3);
        assert!((r.measurement.hit_concurrency - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_detector_reports_zero() {
        let r = CamatDetector::new().finish();
        assert_eq!(r.measurement.accesses, 0);
        assert_eq!(r.cycles_observed, 0);
    }
}
