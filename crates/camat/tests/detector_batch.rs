//! The Fig 4 detector's counts API must be exact:
//!
//! * one `observe_cycle_counts_n(h, m, k)` call leaves the detector in
//!   the same state as `k` single-cycle `observe_cycle_counts(h, m)`
//!   calls, whatever misses begin and accesses retire between batches;
//! * its epoch stamps (`miss_begins` → `retire_counted`) give the same
//!   report as the id-keyed slice API fed the same outstanding misses,
//!   including misses still outstanding at `finish()`.

use proptest::prelude::*;

use c2_camat::detector::{CamatDetector, MissEpoch, MissId};

/// One step of a detector drive. The vendored proptest shim has no
/// `prop_oneof!`, so a selector picks the variant and the other draws
/// parameterize it.
#[derive(Debug, Clone, Copy)]
enum Step {
    Observe {
        hits: u32,
        misses: u32,
        cycles: u64,
    },
    MissBegins,
    /// Retire a hit, or the outstanding miss at `pick` (modulo the
    /// number outstanding; a hit when none is).
    Retire {
        hit_cycles: u32,
        miss: Option<(usize, u32)>,
    },
}

fn any_step() -> impl Strategy<Value = Step> {
    (0u8..4, 0u32..4, 0u32..5, 0u64..40, 0usize..6, 1u32..30).prop_map(
        |(which, a, b, cycles, pick, penalty)| match which {
            0 | 1 => Step::Observe {
                hits: a,
                misses: b,
                cycles,
            },
            2 => Step::MissBegins,
            _ => Step::Retire {
                hit_cycles: a + 1,
                miss: (b % 2 == 0).then_some((pick, penalty)),
            },
        },
    )
}

/// Take the outstanding miss a `Retire` step picks, if any is.
fn take_pick<T>(outstanding: &mut Vec<T>, miss: Option<(usize, u32)>) -> Option<(T, u32)> {
    match miss {
        Some((pick, penalty)) if !outstanding.is_empty() => {
            let i = pick % outstanding.len();
            Some((outstanding.remove(i), penalty))
        }
        _ => None,
    }
}

fn drive(steps: &[Step], batched: bool) -> CamatDetector {
    let mut det = CamatDetector::new();
    let mut outstanding: Vec<MissEpoch> = Vec::new();
    for &step in steps {
        match step {
            Step::Observe {
                hits,
                misses,
                cycles,
            } if batched => det.observe_cycle_counts_n(hits, misses, cycles),
            Step::Observe {
                hits,
                misses,
                cycles,
            } => {
                for _ in 0..cycles {
                    det.observe_cycle_counts(hits, misses);
                }
            }
            Step::MissBegins => outstanding.push(det.miss_begins()),
            Step::Retire { hit_cycles, miss } => {
                let miss = take_pick(&mut outstanding, miss);
                det.retire_counted(hit_cycles, miss);
            }
        }
    }
    det
}

/// Drive the epoch-stamp path and the id-keyed slice path with the same
/// misses: the slice path sees every begun, unretired miss in its
/// outstanding list, the stamp path sees their count. Observation steps
/// ignore their free-form miss count.
fn drive_stamps_and_ids(steps: &[Step]) -> (CamatDetector, CamatDetector) {
    let mut stamps = CamatDetector::new();
    let mut ids = CamatDetector::new();
    let mut outstanding: Vec<(MissEpoch, MissId)> = Vec::new();
    let mut next_id: MissId = 0;
    let mut list: Vec<MissId> = Vec::new();
    for &step in steps {
        match step {
            Step::Observe { hits, cycles, .. } => {
                list.clear();
                list.extend(outstanding.iter().map(|&(_, id)| id));
                stamps.observe_cycle_counts_n(hits, list.len() as u32, cycles);
                for _ in 0..cycles {
                    ids.observe_cycle(hits, &list);
                }
            }
            Step::MissBegins => {
                outstanding.push((stamps.miss_begins(), next_id));
                next_id += 1;
            }
            Step::Retire { hit_cycles, miss } => match take_pick(&mut outstanding, miss) {
                Some(((stamp, id), penalty)) => {
                    stamps.retire_counted(hit_cycles, Some((stamp, penalty)));
                    ids.retire_access(hit_cycles, Some((id, penalty)));
                }
                None => {
                    stamps.retire_counted(hit_cycles, None);
                    ids.retire_access(hit_cycles, None);
                }
            },
        }
    }
    (stamps, ids)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn batched_observation_equals_single_cycles(
        steps in prop::collection::vec(any_step(), 0..60),
    ) {
        let single = drive(&steps, false);
        let batched = drive(&steps, true);
        prop_assert_eq!(single.cycles_observed(), batched.cycles_observed());
        prop_assert_eq!(single.accesses_retired(), batched.accesses_retired());
        prop_assert_eq!(single.finish(), batched.finish());
    }

    #[test]
    fn epoch_stamps_report_what_miss_ids_report(
        steps in prop::collection::vec(any_step(), 0..60),
    ) {
        let (stamps, ids) = drive_stamps_and_ids(&steps);
        prop_assert_eq!(stamps.cycles_observed(), ids.cycles_observed());
        prop_assert_eq!(stamps.accesses_retired(), ids.accesses_retired());
        prop_assert_eq!(stamps.finish(), ids.finish());
    }
}
