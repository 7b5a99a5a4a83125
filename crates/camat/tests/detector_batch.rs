//! The batched counts API of the Fig 4 detector must be exact: one
//! `observe_cycle_counts_n(h, m, k)` call leaves the detector in the
//! same state as `k` single-cycle `observe_cycle_counts(h, m)` calls,
//! whatever misses begin and accesses retire between the batches.

use proptest::prelude::*;

use c2_camat::detector::CamatDetector;

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
    MissBegins(u64),
    Retire {
        hit_cycles: u32,
        miss: Option<(u64, u32)>,
    },
}

fn any_step() -> impl Strategy<Value = Step> {
    (0u8..4, 0u32..4, 0u32..5, 0u64..40, 0u64..6, 1u32..30).prop_map(
        |(which, a, b, cycles, id, penalty)| match which {
            0 | 1 => Step::Observe {
                hits: a,
                misses: b,
                cycles,
            },
            2 => Step::MissBegins(id),
            _ => Step::Retire {
                hit_cycles: a + 1,
                miss: (b % 2 == 0).then_some((id, penalty)),
            },
        },
    )
}

fn drive(steps: &[Step], batched: bool) -> CamatDetector {
    let mut det = CamatDetector::new();
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
            Step::MissBegins(id) => det.miss_begins(id),
            Step::Retire { hit_cycles, miss } => det.retire_access(hit_cycles, miss),
        }
    }
    det
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
}
