//! The chip engine's event wheel must pop request events in exactly the
//! order the `BinaryHeap<Reverse<(u64, ReqId)>>` it replaced did: by due
//! cycle, then by id, including events pushed for the cycle being
//! drained while it drains.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;

use c2_sim::request::{EventWheel, ReqId};

/// One cycle of an engine-shaped schedule, as raw draws: pushes before
/// the cycle's drain (delays 0..size−1), pushes interleaved with its
/// pops (delays 0..=size, 0 being the cycle being drained), and pushes
/// after it (delays 1..=size). Each pair is (raw delay, id).
type CycleDraws = (Vec<(u64, u64)>, Vec<(u64, u64)>, Vec<(u64, u64)>);

/// Popped events in pop order, as `(cycle, id)`.
type Pops = Vec<(u64, ReqId)>;

fn cycle_draws() -> impl Strategy<Value = CycleDraws> {
    let pushes = || prop::collection::vec((0u64..64, 0u64..24), 0..5);
    (pushes(), pushes(), pushes())
}

/// Run the schedule through the wheel and the heap side by side and
/// return every popped `(cycle, id)` of each.
fn run(max_delay: u64, cycles: &[CycleDraws]) -> (Pops, Pops) {
    let mut wheel = EventWheel::new(max_delay);
    let size = wheel.size() as u64;
    assert!(size > max_delay && size.is_power_of_two());
    let mut heap: BinaryHeap<Reverse<(u64, ReqId)>> = BinaryHeap::new();
    let (mut from_wheel, mut from_heap) = (Vec::new(), Vec::new());
    let push = |wheel: &mut EventWheel, heap: &mut BinaryHeap<_>, when, id| {
        wheel.push(when, id);
        heap.push(Reverse((when, id)));
    };
    // Trailing empty cycles drain everything still pending.
    let idle: CycleDraws = Default::default();
    let tail = std::iter::repeat_n(&idle, size as usize + 1);
    for (now, (before, during, after)) in cycles.iter().chain(tail).enumerate() {
        let now = now as u64;
        for &(raw, id) in before {
            push(&mut wheel, &mut heap, now + raw % size, id);
        }
        // Pop both in lock step, pushing between pops as the engine's
        // event handlers do.
        let mut during = during.iter();
        loop {
            let w = wheel.pop_due(now);
            let h = match heap.peek() {
                Some(&Reverse((when, _))) if when <= now => heap.pop().map(|Reverse(e)| e),
                _ => None,
            };
            from_wheel.extend(w.map(|id| (now, id)));
            from_heap.extend(h);
            if w.is_none() && h.is_none() {
                break;
            }
            if let Some(&(raw, id)) = during.next() {
                push(&mut wheel, &mut heap, now + raw % (size + 1), id);
            }
        }
        for &(raw, id) in after {
            push(&mut wheel, &mut heap, now + 1 + raw % size, id);
        }
    }
    assert!(heap.is_empty(), "the tail drains every event");
    (from_wheel, from_heap)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn wheel_pops_equal_heap_pops(
        max_delay in 0u64..20,
        cycles in prop::collection::vec(cycle_draws(), 0..40),
    ) {
        let (wheel, heap) = run(max_delay, &cycles);
        prop_assert_eq!(wheel, heap);
    }
}

#[test]
fn same_cycle_push_lands_at_its_id_position() {
    let mut wheel = EventWheel::new(3);
    wheel.push(0, 5);
    wheel.push(0, 9);
    wheel.push(0, 1);
    assert_eq!(wheel.pop_due(0), Some(1));
    // Pushed while cycle 0 drains: 7 goes between 5 and 9, 2 (below
    // everything left) next.
    wheel.push(0, 7);
    wheel.push(0, 2);
    let rest: Vec<ReqId> = std::iter::from_fn(|| wheel.pop_due(0)).collect();
    assert_eq!(rest, [2, 5, 7, 9]);
    // The furthest cycle ahead shares cycle 0's bucket, now empty.
    wheel.push(wheel.size() as u64, 3);
    for now in 1..wheel.size() as u64 {
        assert_eq!(wheel.pop_due(now), None);
    }
    assert_eq!(wheel.pop_due(wheel.size() as u64), Some(3));
}
