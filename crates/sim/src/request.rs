//! In-flight memory request representation and state machine, the
//! engine's request table ([`RequestArena`]) and its request-event
//! queue ([`EventWheel`]).

use c2_camat::detector::MissEpoch;

/// Monotonic request identifier.
pub type ReqId = u64;

/// Where a request currently is in the memory hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqState {
    /// In the L1 lookup pipeline (the access's *hit phase*).
    L1Lookup {
        /// Cycle at which the lookup resolves.
        done_at: u64,
        /// Whether the lookup will hit (determined at issue).
        hit: bool,
    },
    /// Missed in L1 but the MSHR file was full; retrying allocation.
    L1MshrRetry,
    /// Secondary miss: merged into an existing L1 MSHR entry, waiting
    /// for the primary's fill.
    WaitL1Fill,
    /// Travelling L1 → L2 over the NoC.
    ToL2 {
        /// Arrival cycle at the L2 queue.
        arrive_at: u64,
    },
    /// Waiting for a free L2 bank.
    L2Queue,
    /// In an L2 bank's lookup pipeline.
    L2Lookup {
        /// Cycle at which the lookup resolves.
        done_at: u64,
        /// Whether the lookup will hit.
        hit: bool,
    },
    /// Missed in L2 but the L2 MSHR file was full; retrying.
    L2MshrRetry,
    /// Secondary L2 miss waiting on an outstanding DRAM fetch.
    WaitL2Fill,
    /// Travelling L2 → memory controller.
    ToDram {
        /// Arrival cycle at the DRAM controller.
        arrive_at: u64,
    },
    /// Waiting for space in the DRAM controller queue.
    DramQueueRetry,
    /// Accepted by the DRAM controller; awaiting data.
    DramInFlight,
    /// Fill data travelling back to the L1 (L2 already filled).
    FillToL1 {
        /// Arrival cycle at the L1.
        arrive_at: u64,
    },
    /// Completed; the owning core has been notified.
    Done,
}

/// One in-flight memory request (a dynamic load or store).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Identifier (also the MSHR waiter token).
    pub id: ReqId,
    /// Issuing core.
    pub core: usize,
    /// Cache-line index.
    pub line: u64,
    /// Store (write-allocate) vs load.
    pub is_write: bool,
    /// Dynamic instruction index of the access in its core's trace (the
    /// core's ROB slot; unused by prefetches).
    pub instr: u64,
    /// Cycle the L1 lookup resolved (start of the miss penalty if any).
    pub lookup_done_at: u64,
    /// The core detector's stamp for the miss, set when the L1 lookup
    /// misses and handed back when the access retires.
    pub miss_epoch: MissEpoch,
    /// Current state.
    pub state: ReqState,
    /// Hardware prefetch (not a program access: no core/ detector
    /// notification on completion).
    pub is_prefetch: bool,
}

impl MemRequest {
    /// Whether the request is past its L1 hit phase and still waiting on
    /// data — i.e. an *outstanding miss* from the L1 detector's view.
    pub fn is_outstanding_miss(&self, now: u64) -> bool {
        match self.state {
            ReqState::L1Lookup { .. } | ReqState::Done => false,
            // All interior states are outstanding.
            _ => {
                let _ = now;
                true
            }
        }
    }

    /// Whether the request is in its L1 hit (lookup) phase at `now`.
    pub fn in_hit_phase(&self, now: u64) -> bool {
        matches!(self.state, ReqState::L1Lookup { done_at, .. } if now < done_at)
    }
}

/// Dense arena for the engine's in-flight request table, replacing a
/// `BTreeMap<ReqId, MemRequest>` on the simulator's hottest path.
///
/// Demand and prefetch ids are allocated monotonically and **never
/// reused** (stale-event detection in the engine relies on a completed
/// id staying absent), so the live ids always fall inside a sliding
/// window `[base, base + slots.len())`. Lookup is one bounds check and
/// one ring-buffer index instead of a tree walk, and insertion is an
/// amortized push. Removal trims exhausted slots from both ends so the
/// window tracks the in-flight set, not the whole run. Writeback ids
/// (`>= 1 << 62`) are never inserted; their lookups simply miss.
///
/// The API mirrors the `BTreeMap` subset the engine used, so the swap
/// is type-only and the simulated results stay bit-identical.
#[derive(Debug, Default, Clone)]
pub struct RequestArena {
    slots: std::collections::VecDeque<Option<MemRequest>>,
    /// Id of `slots[0]`. Meaningless while `slots` is empty.
    base: ReqId,
    live: usize,
}

impl RequestArena {
    /// An empty arena.
    pub fn new() -> Self {
        RequestArena::default()
    }

    #[inline]
    fn index_of(&self, id: ReqId) -> Option<usize> {
        if self.slots.is_empty() || id < self.base {
            return None;
        }
        let idx = (id - self.base) as usize;
        if idx >= self.slots.len() {
            return None;
        }
        Some(idx)
    }

    /// Insert `req` under `id`. Ids must arrive in non-decreasing
    /// order relative to the live window (the engine's allocator is a
    /// monotonic counter); re-inserting below the window is a logic
    /// error.
    pub fn insert(&mut self, id: ReqId, req: MemRequest) -> Option<MemRequest> {
        if self.slots.is_empty() {
            self.base = id;
        }
        assert!(
            id >= self.base,
            "request id {id} below the live window base {}",
            self.base
        );
        let idx = (id - self.base) as usize;
        while self.slots.len() <= idx {
            self.slots.push_back(None);
        }
        let old = self.slots[idx].replace(req);
        if old.is_none() {
            self.live += 1;
        }
        old
    }

    /// Borrow the request under `id`, if live.
    pub fn get(&self, id: &ReqId) -> Option<&MemRequest> {
        self.index_of(*id).and_then(|i| self.slots[i].as_ref())
    }

    /// Mutably borrow the request under `id`, if live.
    pub fn get_mut(&mut self, id: &ReqId) -> Option<&mut MemRequest> {
        match self.index_of(*id) {
            Some(i) => self.slots[i].as_mut(),
            None => None,
        }
    }

    /// Whether `id` is live.
    pub fn contains_key(&self, id: &ReqId) -> bool {
        self.get(id).is_some()
    }

    /// Remove and return the request under `id`; the freed slot is
    /// trimmed from the window edges once its neighbours drain too.
    pub fn remove(&mut self, id: &ReqId) -> Option<MemRequest> {
        let idx = self.index_of(*id)?;
        let old = self.slots[idx].take();
        if old.is_some() {
            self.live -= 1;
            while matches!(self.slots.front(), Some(None)) {
                self.slots.pop_front();
                self.base += 1;
            }
            while matches!(self.slots.back(), Some(None)) {
                self.slots.pop_back();
            }
        }
        old
    }

    /// Number of live requests.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no request is in flight.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

impl std::ops::Index<&ReqId> for RequestArena {
    type Output = MemRequest;

    fn index(&self, id: &ReqId) -> &MemRequest {
        self.get(id).expect("no live request under this id")
    }
}

/// The engine's request-event queue: a timing wheel that pops
/// `(cycle, id)` events in exactly the order a
/// `BinaryHeap<Reverse<(u64, ReqId)>>` would.
///
/// The ring has a power-of-two number of buckets, more than the longest
/// delay an event is scheduled with, and bucket `cycle & mask` collects
/// the ids due at `cycle` unsorted. The engine drains every cycle in
/// turn ([`EventWheel::pop_due`]); a bucket is sorted by id when its
/// cycle comes up. A push for the cycle being drained goes into that
/// cycle's undrained remainder at its id position, where the heap
/// would have popped it too.
///
/// Pending events fall in the `size` cycles after the one being
/// drained (the latest is pushed before the next cycle's drain starts,
/// `max_delay + 1 ≤ size` cycles ahead), so each bucket only ever holds
/// one cycle's events.
#[derive(Debug, Clone)]
pub struct EventWheel {
    buckets: Vec<Vec<ReqId>>,
    mask: u64,
    /// The cycle being drained (`u64::MAX` before the first).
    cycle: u64,
    /// That cycle's events, sorted by id; `current[next..]` are unpopped.
    current: Vec<ReqId>,
    next: usize,
}

impl EventWheel {
    /// A wheel for events scheduled at most `max_delay` cycles after the
    /// cycle being drained.
    pub fn new(max_delay: u64) -> Self {
        let size = (max_delay + 1).next_power_of_two();
        EventWheel {
            buckets: vec![Vec::new(); size as usize],
            mask: size - 1,
            cycle: u64::MAX,
            current: Vec::new(),
            next: 0,
        }
    }

    /// Number of buckets in the ring.
    pub fn size(&self) -> usize {
        self.buckets.len()
    }

    /// Schedule `id` for cycle `when`: the cycle being drained, or one at
    /// most `size` cycles after it.
    pub fn push(&mut self, when: u64, id: ReqId) {
        if when == self.cycle {
            let at = self.next + self.current[self.next..].partition_point(|&x| x < id);
            self.current.insert(at, id);
        } else {
            debug_assert!(
                when.wrapping_sub(self.cycle) <= self.mask + 1,
                "event at {when} outside the wheel's horizon from {}",
                self.cycle
            );
            self.buckets[(when & self.mask) as usize].push(id);
        }
    }

    /// Pop the lowest id due at `now`, draining the cycles in order:
    /// `now` is the cycle being drained or the one after it.
    pub fn pop_due(&mut self, now: u64) -> Option<ReqId> {
        if now != self.cycle {
            debug_assert_eq!(now, self.cycle.wrapping_add(1), "cycles drain in order");
            debug_assert_eq!(self.next, self.current.len(), "undrained events");
            self.cycle = now;
            self.current.clear();
            std::mem::swap(
                &mut self.current,
                &mut self.buckets[(now & self.mask) as usize],
            );
            self.current.sort_unstable();
            self.next = 0;
        }
        let id = *self.current.get(self.next)?;
        self.next += 1;
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(state: ReqState) -> MemRequest {
        MemRequest {
            id: 1,
            core: 0,
            line: 10,
            is_write: false,
            instr: 0,
            lookup_done_at: 3,
            miss_epoch: MissEpoch::default(),
            state,
            is_prefetch: false,
        }
    }

    #[test]
    fn hit_phase_classification() {
        let r = req(ReqState::L1Lookup {
            done_at: 3,
            hit: false,
        });
        assert!(r.in_hit_phase(0));
        assert!(r.in_hit_phase(2));
        assert!(!r.in_hit_phase(3));
        assert!(!r.is_outstanding_miss(1));
    }

    #[test]
    fn outstanding_miss_classification() {
        for s in [
            ReqState::L1MshrRetry,
            ReqState::WaitL1Fill,
            ReqState::ToL2 { arrive_at: 9 },
            ReqState::L2Queue,
            ReqState::L2Lookup {
                done_at: 20,
                hit: true,
            },
            ReqState::WaitL2Fill,
            ReqState::ToDram { arrive_at: 30 },
            ReqState::DramQueueRetry,
            ReqState::DramInFlight,
            ReqState::FillToL1 { arrive_at: 99 },
        ] {
            assert!(req(s).is_outstanding_miss(5), "{s:?}");
            assert!(!req(s).in_hit_phase(5), "{s:?}");
        }
        assert!(!req(ReqState::Done).is_outstanding_miss(5));
    }

    fn arena_req(id: ReqId) -> MemRequest {
        MemRequest {
            id,
            ..req(ReqState::L1MshrRetry)
        }
    }

    #[test]
    fn arena_insert_get_remove_round_trip() {
        let mut a = RequestArena::new();
        assert!(a.is_empty());
        for id in 0..8u64 {
            assert!(a.insert(id, arena_req(id)).is_none());
        }
        assert_eq!(a.len(), 8);
        assert_eq!(a[&3].id, 3);
        assert!(a.contains_key(&7));
        assert!(!a.contains_key(&8));
        a.get_mut(&5).unwrap().state = ReqState::Done;
        assert_eq!(a.get(&5).unwrap().state, ReqState::Done);
        for id in 0..8u64 {
            assert_eq!(a.remove(&id).unwrap().id, id);
            assert!(a.remove(&id).is_none(), "ids are never reused");
        }
        assert!(a.is_empty());
    }

    #[test]
    fn arena_window_slides_and_tolerates_gaps() {
        let mut a = RequestArena::new();
        a.insert(10, arena_req(10));
        a.insert(11, arena_req(11));
        // Rollback of the newest id (the prefetch-full path) leaves a
        // gap the next monotonic insert skips over.
        a.remove(&11);
        a.insert(13, arena_req(13));
        assert!(!a.contains_key(&11));
        assert!(!a.contains_key(&12));
        assert_eq!(a.len(), 2);
        // Draining the front advances the base past the hole.
        a.remove(&10);
        assert!(a.contains_key(&13));
        a.remove(&13);
        assert!(a.is_empty());
        // Reuse after a full drain restarts the window anywhere.
        a.insert(100, arena_req(100));
        assert_eq!(a[&100].id, 100);
    }

    #[test]
    fn arena_misses_out_of_window_ids() {
        let mut a = RequestArena::new();
        a.insert(5, arena_req(5));
        // Below the window (already retired) and far above it (a
        // writeback id) both miss instead of panicking.
        assert!(a.get(&0).is_none());
        assert!(a.get(&(1 << 62)).is_none());
        assert!(a.get_mut(&(1 << 62)).is_none());
        assert!(a.remove(&(1 << 62)).is_none());
    }
}
