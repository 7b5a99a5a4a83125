//! The chip engine: cores + private L1s + shared banked L2 + DRAM,
//! advanced cycle by cycle.
//!
//! The organization follows the paper's Fig 3: NoC-connected cores with
//! private L1s and a shared, banked L2 in front of the memory
//! controllers. Every request walks an explicit state machine
//! ([`crate::request::ReqState`]); the Fig 4 HCD/MCD detector observes
//! each core's L1 every cycle, so the reported C-AMAT parameters are
//! *measured* by the same machinery the paper proposes in hardware.
//!
//! The engine steps only *awake* cores, in ascending core index. A core
//! blocked on memory ([`Core::blocked_on_memory`]) sleeps: none of its
//! cycles change anything but its ROB-stall count, and its detector sees
//! the same (hits, outstanding) counts every cycle. It wakes when one of
//! its requests resolves its L1 lookup or completes, and the skipped
//! cycles are settled in closed form first — so results are identical
//! to stepping every core every cycle, at a cost that follows the
//! events rather than cores × cycles.

use std::collections::VecDeque;

use c2_camat::detector::{CamatDetector, MissEpoch};
use c2_camat::{Apc, LayerApc, MemoryLayer};
use c2_trace::Trace;

use crate::cache::{CacheArray, LookupResult};
use crate::config::ChipConfig;
use crate::core::{Core, NextOp};
use crate::dram::Dram;
use crate::metrics::{LayerStats, PerCoreStats};
use crate::mshr::{MshrFile, MshrOutcome};
use crate::request::{EventWheel, MemRequest, ReqId, ReqState, RequestArena};
use crate::{Error, Result};

/// Writeback request ids live in their own namespace so fill completions
/// and writeback completions can be told apart.
const WB_BASE: ReqId = 1 << 62;

/// Outcome of a full simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Cycles until the last core retired its last instruction and the
    /// memory system drained.
    pub total_cycles: u64,
    /// Per-core statistics, including each core's L1 C-AMAT measurement.
    pub cores: Vec<PerCoreStats>,
    /// L1 layer activity (any private L1 busy).
    pub l1_layer: LayerStats,
    /// Shared L2 layer counters.
    pub l2_layer: LayerStats,
    /// DRAM layer counters.
    pub dram_layer: LayerStats,
    /// DRAM row-buffer hit rate.
    pub dram_row_hit_rate: f64,
    /// Writebacks sent to DRAM.
    pub writebacks: u64,
    /// Next-line prefetches issued (0 unless enabled in the L1 config).
    pub prefetches: u64,
}

impl SimResult {
    /// Aggregate instructions retired.
    pub fn total_instructions(&self) -> u64 {
        self.cores.iter().map(|c| c.instructions).sum()
    }

    /// Aggregate IPC over the whole run.
    pub fn ipc(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.total_instructions() as f64 / self.total_cycles as f64
        }
    }

    /// The per-layer APC readings (the paper's Fig 13 series).
    pub fn layer_apc(&self) -> LayerApc {
        let mut l = LayerApc::new();
        l.set(MemoryLayer::L1, self.l1_layer.apc());
        l.set(MemoryLayer::Llc, self.l2_layer.apc());
        l.set(MemoryLayer::Dram, self.dram_layer.apc());
        l
    }

    /// Chip-wide C-AMAT at L1: access-weighted combination of the
    /// per-core measurements (memory-active cycles / accesses).
    pub fn chip_camat(&self) -> f64 {
        let accesses: u64 = self.cores.iter().map(|c| c.camat.accesses).sum();
        let active: u64 = self
            .cores
            .iter()
            .map(|c| c.camat.memory_active_cycles)
            .sum();
        if accesses == 0 {
            0.0
        } else {
            active as f64 / accesses as f64
        }
    }
}

/// The trace-driven chip simulator.
#[derive(Debug, Clone)]
pub struct Simulator {
    config: ChipConfig,
}

impl Simulator {
    /// Build a simulator for a chip configuration.
    pub fn new(config: ChipConfig) -> Self {
        Simulator { config }
    }

    /// The configuration.
    pub fn config(&self) -> &ChipConfig {
        &self.config
    }

    /// Run one trace per core to completion.
    pub fn run(&self, traces: &[Trace]) -> Result<SimResult> {
        self.config.validate()?;
        if traces.len() != self.config.cores {
            return Err(Error::TraceCountMismatch {
                cores: self.config.cores,
                traces: traces.len(),
            });
        }
        Engine::new(&self.config, traces).run()
    }
}

struct Engine<'t> {
    config: ChipConfig,
    cores: Vec<Core<'t>>,
    l1s: Vec<CacheArray>,
    l1_mshrs: Vec<MshrFile>,
    detectors: Vec<CamatDetector>,
    l2: CacheArray,
    l2_mshr: MshrFile,
    /// FIFO of requests waiting for an L2 bank.
    l2_queue: VecDeque<ReqId>,
    /// Cycle until which each L2 bank's input is busy (pipelined: +1).
    l2_bank_busy: Vec<u64>,
    dram: Dram,
    requests: RequestArena,
    next_req: ReqId,
    next_wb: ReqId,
    /// Pending DRAM writebacks (line indices) awaiting queue space.
    wb_pending: Vec<u64>,
    wb_inflight: u64,
    /// Timed state transitions, popped in (due cycle, request id) order.
    events: EventWheel,
    /// Per-core FIFOs of requests waiting for a free L1 MSHR entry
    /// (woken when a fill releases one — never polled per cycle).
    retry_l1: Vec<VecDeque<ReqId>>,
    /// Requests waiting for a free L2 MSHR entry (woken on DRAM fills).
    retry_l2: VecDeque<ReqId>,
    /// Requests waiting for DRAM queue space (small: bounded by the L2
    /// MSHR file; polled per cycle).
    retry_dram: Vec<ReqId>,
    /// Per-core accesses currently in their L1 hit (lookup) phase.
    hits_in_flight: Vec<u32>,
    /// Per-core outstanding misses (past lookup, data not yet returned).
    outstanding: Vec<u32>,
    /// Cores with at least one access in its hit phase (the chip-wide
    /// L1-active signal).
    cores_hitting: usize,
    /// Unfinished cores to step this cycle, ascending. Request ids are
    /// allocated in core order, so the order is part of the results.
    awake: Vec<usize>,
    /// Cores woken since the last step, to merge into `awake`.
    woken: Vec<usize>,
    /// Per core: the first cycle it was not stepped, while asleep.
    asleep_since: Vec<Option<u64>>,
    /// Cores that have not finished.
    live: usize,
    /// Requests currently resident at the L2 (queued or in lookup).
    l2_resident: u64,
    /// Demand memory requests issued so far (1-based after increment),
    /// keyed to the fault plan's `fail_at_request`.
    demand_requests: u64,
    /// Scratch for MSHR waiter drains (one allocation per run, not per
    /// fill).
    waiter_buf: Vec<ReqId>,
    // Statistics
    l1_layer: LayerStats,
    l2_layer: LayerStats,
    dram_layer: LayerStats,
    writebacks: u64,
    prefetches: u64,
    per_core_accesses: Vec<u64>,
    per_core_misses: Vec<u64>,
    per_core_mem_active: Vec<u64>,
    per_core_overlap: Vec<u64>,
}

impl<'t> Engine<'t> {
    fn new(config: &ChipConfig, traces: &'t [Trace]) -> Self {
        let mut dram = Dram::new(config.dram);
        dram.set_spike(config.fault.dram_spike);
        let cores: Vec<Core> = traces.iter().map(|t| Core::new(config.core, t)).collect();
        let awake: Vec<usize> = (0..cores.len()).filter(|&i| !cores[i].finished()).collect();
        Engine {
            live: awake.len(),
            awake,
            woken: Vec::new(),
            asleep_since: vec![None; config.cores],
            cores_hitting: 0,
            cores,
            l1s: (0..config.cores)
                .map(|_| CacheArray::new(&config.l1))
                .collect(),
            l1_mshrs: (0..config.cores)
                .map(|_| MshrFile::new(config.l1.mshr_entries))
                .collect(),
            detectors: (0..config.cores).map(|_| CamatDetector::new()).collect(),
            l2: CacheArray::new(&config.l2),
            l2_mshr: MshrFile::new(config.l2.mshr_entries),
            l2_queue: VecDeque::new(),
            l2_bank_busy: vec![0; config.l2.banks],
            dram,
            requests: RequestArena::new(),
            next_req: 0,
            next_wb: WB_BASE,
            wb_pending: Vec::new(),
            wb_inflight: 0,
            events: EventWheel::new(config.max_event_delay()),
            retry_l1: vec![VecDeque::new(); config.cores],
            retry_l2: VecDeque::new(),
            retry_dram: Vec::new(),
            hits_in_flight: vec![0; config.cores],
            outstanding: vec![0; config.cores],
            l2_resident: 0,
            demand_requests: 0,
            waiter_buf: Vec::new(),
            l1_layer: LayerStats::default(),
            l2_layer: LayerStats::default(),
            dram_layer: LayerStats::default(),
            writebacks: 0,
            prefetches: 0,
            per_core_accesses: vec![0; config.cores],
            per_core_misses: vec![0; config.cores],
            per_core_mem_active: vec![0; config.cores],
            per_core_overlap: vec![0; config.cores],
            config: config.clone(),
        }
    }

    fn run(mut self) -> Result<SimResult> {
        let mut now: u64 = 0;
        let mut dram_done: Vec<ReqId> = Vec::new();
        loop {
            // 1. DRAM advances and returns fills.
            self.dram.tick(now);
            dram_done.clear();
            self.dram.drain_completed(now, &mut dram_done);
            dram_done.sort_unstable(); // determinism
            for id in dram_done.drain(..) {
                if id >= WB_BASE {
                    self.wb_inflight -= 1;
                    continue;
                }
                self.handle_dram_fill(id, now);
            }

            // 2. Timed request-state transitions (event-driven).
            self.process_events(now);

            // 3. Requests blocked on a full structure retry.
            self.process_retries(now);

            // 4. L2 bank dispatch.
            self.dispatch_l2(now);

            // 5. Drain pending writebacks into the DRAM queue.
            self.flush_writebacks(now);

            // 6. Awake cores retire, issue and are observed.
            self.core_cycle(now)?;

            // 7. Layer activity observation.
            self.observe_layers(now);

            // 8. Termination.
            let cores_done = self.live == 0;
            let mem_drained = self.requests.is_empty()
                && self.wb_pending.is_empty()
                && self.wb_inflight == 0
                && !self.dram.is_active(now);
            if cores_done && mem_drained {
                break;
            }
            now += 1;
            if now > self.config.max_cycles {
                return Err(Error::CycleBudgetExceeded {
                    budget: self.config.max_cycles,
                });
            }
        }
        self.finish(now)
    }

    /// A DRAM read fill arrived: install in L2 and release L2 waiters.
    fn handle_dram_fill(&mut self, id: ReqId, now: u64) {
        let line = match self.requests.get(&id) {
            Some(r) => r.line,
            None => return,
        };
        if let Some((victim, dirty)) = self.l2.install(line, false) {
            if dirty {
                self.wb_pending.push(victim);
                self.writebacks += 1;
            }
        }
        let mut waiters = std::mem::take(&mut self.waiter_buf);
        self.l2_mshr.complete_into(line, &mut waiters);
        let arrive = now + self.config.noc.l1_l2_latency as u64;
        for &w in &waiters {
            if let Some(r) = self.requests.get_mut(&w) {
                r.state = ReqState::FillToL1 { arrive_at: arrive };
                self.events.push(arrive, w);
            }
        }
        self.waiter_buf = waiters;
        // An L2 MSHR entry just freed: wake blocked L2 misses.
        self.drain_l2_retries(now);
    }

    /// Pop every scheduled transition due at `now`.
    fn process_events(&mut self, now: u64) {
        while let Some(id) = self.events.pop_due(now) {
            let Some(r) = self.requests.get(&id).copied() else {
                continue; // already completed (stale event)
            };
            match r.state {
                ReqState::L1Lookup { done_at, hit } if done_at <= now => {
                    self.wake(r.core, now);
                    self.hits_in_flight[r.core] -= 1;
                    if self.hits_in_flight[r.core] == 0 {
                        self.cores_hitting -= 1;
                    }
                    if hit {
                        self.complete_request(id, now, false);
                    } else {
                        self.outstanding[r.core] += 1;
                        let epoch = self.detectors[r.core].miss_begins();
                        self.requests.get_mut(&id).unwrap().miss_epoch = epoch;
                        self.l1_miss_to_mshr(id, now);
                        if self.config.l1.next_line_prefetch {
                            self.maybe_prefetch(r.core, r.line + 1, now);
                        }
                    }
                }
                ReqState::ToL2 { arrive_at } if arrive_at <= now => {
                    self.requests.get_mut(&id).unwrap().state = ReqState::L2Queue;
                    self.l2_queue.push_back(id);
                    self.l2_resident += 1;
                }
                ReqState::L2Lookup { done_at, hit } if done_at <= now => {
                    self.l2_resident -= 1;
                    if hit {
                        let arrive = now + self.config.noc.l1_l2_latency as u64;
                        self.requests.get_mut(&id).unwrap().state =
                            ReqState::FillToL1 { arrive_at: arrive };
                        self.events.push(arrive, id);
                    } else {
                        self.l2_miss_to_mshr(id, now);
                    }
                }
                ReqState::ToDram { arrive_at } if arrive_at <= now => {
                    self.try_dram_enqueue(id, now);
                }
                ReqState::FillToL1 { arrive_at } if arrive_at <= now => {
                    self.handle_l1_fill(id, now);
                }
                // Stale or retry-managed state: nothing to do.
                _ => {}
            }
        }
    }

    /// Retry requests blocked on the DRAM queue (the MSHR retry lists
    /// are wake-driven instead — see `drain_l1_retries` /
    /// `drain_l2_retries` — because they can grow to the full in-flight
    /// window and must not be polled every cycle).
    fn process_retries(&mut self, now: u64) {
        if self.retry_dram.is_empty() {
            return;
        }
        let mut dq = std::mem::take(&mut self.retry_dram);
        dq.retain(|&id| {
            if !self.requests.contains_key(&id) {
                return false;
            }
            self.try_dram_enqueue(id, now);
            matches!(
                self.requests.get(&id).map(|r| r.state),
                Some(ReqState::DramQueueRetry)
            )
        });
        debug_assert!(self.retry_dram.is_empty());
        self.retry_dram = dq;
    }

    /// Wake L1-MSHR-blocked requests of `core` now that capacity freed.
    fn drain_l1_retries(&mut self, core: usize, now: u64) {
        while !self.l1_mshr_blocked(core, now) {
            let Some(id) = self.retry_l1[core].pop_front() else {
                break;
            };
            if !self.requests.contains_key(&id) {
                continue;
            }
            // The wanted line may have been filled while waiting (by a
            // merged demand or a prefetch): complete straight away.
            let line = self.requests[&id].line;
            if matches!(self.l1s[core].probe(line), LookupResult::Hit) {
                self.complete_request(id, now, true);
                continue;
            }
            self.l1_miss_to_mshr(id, now);
        }
    }

    /// Wake L2-MSHR-blocked requests now that capacity freed.
    fn drain_l2_retries(&mut self, now: u64) {
        while !self.l2_mshr.is_full() {
            let Some(id) = self.retry_l2.pop_front() else {
                break;
            };
            if !self.requests.contains_key(&id) {
                continue;
            }
            self.l2_miss_to_mshr(id, now);
        }
    }

    /// Issue a next-line prefetch: a request that enters the MSHR/L2
    /// path directly (no core lookup phase) and notifies nobody on
    /// completion. Dropped silently when useless (line resident or
    /// already outstanding) or when no MSHR entry is free — prefetches
    /// never steal a demand slot via retry.
    fn maybe_prefetch(&mut self, core: usize, line: u64, now: u64) {
        use crate::cache::LookupResult;
        if self.l1_mshrs[core].contains(line)
            || self.l1_mshr_blocked(core, now)
            || matches!(self.l1s[core].probe(line), LookupResult::Hit)
        {
            return;
        }
        let id = self.next_req;
        self.next_req += 1;
        self.requests.insert(
            id,
            MemRequest {
                id,
                core,
                line,
                is_write: false,
                instr: 0,
                lookup_done_at: now,
                miss_epoch: MissEpoch::default(),
                state: ReqState::WaitL1Fill, // placeholder; set below
                is_prefetch: true,
            },
        );
        self.prefetches += 1;
        match self.l1_mshrs[core].register(line, id) {
            MshrOutcome::Allocated => {
                let arrive = now + self.config.noc.l1_l2_latency as u64;
                self.requests.get_mut(&id).unwrap().state = ReqState::ToL2 { arrive_at: arrive };
                self.events.push(arrive, id);
            }
            // Unreachable given the checks above, but stay safe.
            MshrOutcome::Merged => {
                self.requests.get_mut(&id).unwrap().state = ReqState::WaitL1Fill;
            }
            MshrOutcome::Full => {
                self.requests.remove(&id);
                self.prefetches -= 1;
            }
        }
    }

    /// Route an L1 miss into the MSHR file; on success schedule the NoC
    /// hop, on merge wait for the primary, on full join the retry list.
    fn l1_miss_to_mshr(&mut self, id: ReqId, now: u64) {
        let (core, line, prev_state) = {
            let r = &self.requests[&id];
            (r.core, r.line, r.state)
        };
        // Starvation fault: a new line may not allocate while the file is
        // non-empty, but merges into in-flight lines are still free.
        let outcome = if self.l1_mshr_blocked(core, now) && !self.l1_mshrs[core].contains(line) {
            MshrOutcome::Full
        } else {
            self.l1_mshrs[core].register(line, id)
        };
        match outcome {
            MshrOutcome::Allocated => {
                let arrive = now + self.config.noc.l1_l2_latency as u64;
                self.requests.get_mut(&id).unwrap().state = ReqState::ToL2 { arrive_at: arrive };
                self.events.push(arrive, id);
            }
            MshrOutcome::Merged => {
                self.requests.get_mut(&id).unwrap().state = ReqState::WaitL1Fill;
            }
            MshrOutcome::Full => {
                self.requests.get_mut(&id).unwrap().state = ReqState::L1MshrRetry;
                if !matches!(prev_state, ReqState::L1MshrRetry) {
                    self.retry_l1[core].push_back(id);
                }
            }
        }
    }

    fn l2_miss_to_mshr(&mut self, id: ReqId, now: u64) {
        let (line, prev_state) = {
            let r = &self.requests[&id];
            (r.line, r.state)
        };
        match self.l2_mshr.register(line, id) {
            MshrOutcome::Allocated => {
                let arrive = now + self.config.noc.l2_mem_latency as u64;
                self.requests.get_mut(&id).unwrap().state = ReqState::ToDram { arrive_at: arrive };
                self.events.push(arrive, id);
            }
            MshrOutcome::Merged => {
                self.requests.get_mut(&id).unwrap().state = ReqState::WaitL2Fill;
            }
            MshrOutcome::Full => {
                self.requests.get_mut(&id).unwrap().state = ReqState::L2MshrRetry;
                if !matches!(prev_state, ReqState::L2MshrRetry) {
                    self.retry_l2.push_back(id);
                }
            }
        }
    }

    fn try_dram_enqueue(&mut self, id: ReqId, now: u64) {
        let (line, prev_state) = {
            let r = &self.requests[&id];
            (r.line, r.state)
        };
        if self.dram.enqueue(id, line, false, now) {
            self.requests.get_mut(&id).unwrap().state = ReqState::DramInFlight;
            self.dram_layer.accesses += 1;
        } else {
            self.requests.get_mut(&id).unwrap().state = ReqState::DramQueueRetry;
            if !matches!(prev_state, ReqState::DramQueueRetry) {
                self.retry_dram.push(id);
            }
        }
    }

    /// A fill reached a private L1: install, release MSHR waiters,
    /// complete every waiting access.
    fn handle_l1_fill(&mut self, id: ReqId, now: u64) {
        let (core, line) = {
            let r = &self.requests[&id];
            (r.core, r.line)
        };
        let mut waiters = std::mem::take(&mut self.waiter_buf);
        self.l1_mshrs[core].complete_into(line, &mut waiters);
        // The line becomes dirty if any waiting access was a store
        // (write-allocate policy).
        let dirty = waiters
            .iter()
            .filter_map(|w| self.requests.get(w))
            .any(|r| r.is_write);
        if let Some((victim, victim_dirty)) = self.l1s[core].install(line, dirty) {
            if victim_dirty {
                // Write back into L2 if present, else straight to DRAM.
                if !self.l2.mark_dirty(victim) {
                    self.wb_pending.push(victim);
                    self.writebacks += 1;
                }
            }
        }
        debug_assert!(
            waiters.contains(&id),
            "the filling primary must be among the MSHR waiters"
        );
        for &w in &waiters {
            self.complete_request(w, now, true);
        }
        self.waiter_buf = waiters;
        // An MSHR entry just freed: wake blocked misses of this core.
        self.drain_l1_retries(core, now);
    }

    /// Finish an access: notify the detector and the owning core, then
    /// drop the request.
    fn complete_request(&mut self, id: ReqId, now: u64, was_miss: bool) {
        let Some(r) = self.requests.remove(&id) else {
            return;
        };
        if r.is_prefetch {
            return; // hardware-initiated: nobody to notify
        }
        self.wake(r.core, now);
        let hit_cycles = self.config.l1.hit_latency;
        let miss = if was_miss {
            let penalty = now.saturating_sub(r.lookup_done_at).max(1) as u32;
            Some((r.miss_epoch, penalty))
        } else {
            None
        };
        self.detectors[r.core].retire_counted(hit_cycles, miss);
        self.cores[r.core].complete_request(r.instr);
        if was_miss {
            self.outstanding[r.core] -= 1;
            self.per_core_misses[r.core] += 1;
        }
    }

    /// Hand queued requests to free L2 banks, oldest first, up to the
    /// L2's ports; a request whose bank is busy keeps its place.
    fn dispatch_l2(&mut self, now: u64) {
        let mut dispatched = 0usize;
        let mut i = 0;
        while i < self.l2_queue.len() && dispatched < self.config.l2.ports {
            let id = self.l2_queue[i];
            let Some(r) = self.requests.get(&id) else {
                self.l2_queue.remove(i);
                continue;
            };
            let bank = self.l2.bank_of(r.line);
            if self.l2_bank_busy[bank] <= now {
                // Pipelined bank: accepts one new lookup per cycle.
                self.l2_bank_busy[bank] = now + 1;
                let hit = matches!(self.l2.access(r.line, false), LookupResult::Hit);
                self.l2_layer.accesses += 1;
                if hit {
                    self.l2_layer.hits += 1;
                } else {
                    self.l2_layer.misses += 1;
                }
                let done = now + self.config.l2.hit_latency as u64;
                self.requests.get_mut(&id).unwrap().state =
                    ReqState::L2Lookup { done_at: done, hit };
                self.events.push(done, id);
                self.l2_queue.remove(i);
                dispatched += 1;
            } else {
                i += 1;
            }
        }
    }

    fn flush_writebacks(&mut self, now: u64) {
        while let Some(&line) = self.wb_pending.last() {
            if self.dram.enqueue(self.next_wb, line, true, now) {
                self.wb_pending.pop();
                self.wb_inflight += 1;
                self.dram_layer.accesses += 1;
                self.next_wb += 1;
            } else {
                break;
            }
        }
    }

    /// Whether the private L1 MSHR file of `core` must be treated as
    /// unavailable for new allocations: genuinely full, or starved down
    /// to one effective entry by the fault plan. During starvation an
    /// *empty* file still accepts one miss, so forward progress (and
    /// hence termination) is preserved.
    fn l1_mshr_blocked(&self, core: usize, now: u64) -> bool {
        if self.l1_mshrs[core].is_full() {
            return true;
        }
        match &self.config.fault.mshr_starvation {
            Some(w) => w.contains(now) && self.l1_mshrs[core].occupancy() >= 1,
            None => false,
        }
    }

    /// Wake `core` if it sleeps, first settling the cycles it was not
    /// stepped in closed form. Callers wake a core before changing its
    /// hit/miss counts or completing one of its requests, so every
    /// skipped cycle saw the counts as they were while it slept.
    fn wake(&mut self, core: usize, now: u64) {
        let Some(from) = self.asleep_since[core].take() else {
            return;
        };
        self.woken.push(core);
        let skipped = now - from;
        if skipped == 0 {
            return;
        }
        // Each skipped cycle retired and issued nothing: a ROB-full core
        // stalled, the detector saw unchanged counts, and no cycle
        // overlapped memory with pipeline progress.
        if !self.cores[core].rob_has_space() {
            self.cores[core].note_rob_stalls(skipped);
        }
        let (hits, outstanding) = (self.hits_in_flight[core], self.outstanding[core]);
        self.detectors[core].observe_cycle_counts_n(hits, outstanding, skipped);
        if hits > 0 || outstanding > 0 {
            self.per_core_mem_active[core] += skipped;
        }
    }

    /// Step every awake core (ascending index), observe it, and put it
    /// to sleep or retire it from the set when it blocks or finishes.
    fn core_cycle(&mut self, now: u64) -> Result<()> {
        if !self.woken.is_empty() {
            self.awake.append(&mut self.woken);
            self.awake.sort_unstable();
        }
        // Compact the set in place: the run ends on an error, so an
        // early return may drop it.
        let mut awake = std::mem::take(&mut self.awake);
        let mut kept = 0;
        for i in 0..awake.len() {
            let core_idx = awake[i];
            self.step_core(core_idx, now)?;
            self.observe_core(core_idx);
            if self.cores[core_idx].finished() {
                self.live -= 1;
            } else if self.cores[core_idx].blocked_on_memory() {
                self.asleep_since[core_idx] = Some(now + 1);
            } else {
                awake[kept] = core_idx;
                kept += 1;
            }
        }
        awake.truncate(kept);
        self.awake = awake;
        Ok(())
    }

    fn step_core(&mut self, core_idx: usize, now: u64) -> Result<()> {
        self.cores[core_idx].retire(now);
        let width = self.cores[core_idx].issue_width();
        let mut ports_used = 0usize;
        for _ in 0..width {
            if self.cores[core_idx].finished() {
                break;
            }
            if !self.cores[core_idx].rob_has_space() {
                self.cores[core_idx].note_rob_stall();
                break;
            }
            match self.cores[core_idx].peek() {
                NextOp::Exhausted => break,
                NextOp::Compute => self.cores[core_idx].issue_compute(now),
                NextOp::Memory(access) => {
                    if ports_used >= self.config.l1.ports {
                        self.cores[core_idx].note_mem_stall();
                        break;
                    }
                    ports_used += 1;
                    self.demand_requests += 1;
                    if self.config.fault.fail_at_request == Some(self.demand_requests) {
                        return Err(Error::InjectedFault {
                            request: self.demand_requests,
                            cycle: now,
                        });
                    }
                    let line = self.l1s[core_idx].line_of(access.addr);
                    let hit = matches!(
                        self.l1s[core_idx].access(line, access.kind.is_write()),
                        LookupResult::Hit
                    );
                    let id = self.next_req;
                    self.next_req += 1;
                    let done_at = now + self.config.l1.hit_latency as u64;
                    self.requests.insert(
                        id,
                        MemRequest {
                            id,
                            core: core_idx,
                            line,
                            is_write: access.kind.is_write(),
                            instr: access.instr,
                            lookup_done_at: done_at,
                            miss_epoch: MissEpoch::default(),
                            state: ReqState::L1Lookup { done_at, hit },
                            is_prefetch: false,
                        },
                    );
                    self.events.push(done_at, id);
                    if self.hits_in_flight[core_idx] == 0 {
                        self.cores_hitting += 1;
                    }
                    self.hits_in_flight[core_idx] += 1;
                    self.per_core_accesses[core_idx] += 1;
                    self.l1_layer.accesses += 1;
                    if hit {
                        self.l1_layer.hits += 1;
                    } else {
                        self.l1_layer.misses += 1;
                    }
                    self.cores[core_idx].issue_memory();
                }
            }
        }
        Ok(())
    }

    /// One cycle of the Fig 4 detector and the Eq. 7 overlap counters
    /// for a stepped core.
    fn observe_core(&mut self, core_idx: usize) {
        let hits = self.hits_in_flight[core_idx];
        let outstanding = self.outstanding[core_idx];
        self.detectors[core_idx].observe_cycle_counts(hits, outstanding);
        // Eq. 7 overlap measurement: memory-active cycles during which
        // the pipeline still advanced.
        let progress = self.cores[core_idx].take_progress();
        if hits > 0 || outstanding > 0 {
            self.per_core_mem_active[core_idx] += 1;
            if progress {
                self.per_core_overlap[core_idx] += 1;
            }
        }
    }

    fn observe_layers(&mut self, now: u64) {
        if self.cores_hitting > 0 {
            self.l1_layer.active_cycles += 1;
        }
        if self.l2_resident > 0 {
            self.l2_layer.active_cycles += 1;
        }
        if self.dram.is_active(now) {
            self.dram_layer.active_cycles += 1;
        }
    }

    fn finish(mut self, now: u64) -> Result<SimResult> {
        let mut cores = Vec::with_capacity(self.cores.len());
        for (i, det) in self.detectors.drain(..).enumerate() {
            let report = det.finish();
            cores.push(PerCoreStats {
                instructions: self.cores[i].retired(),
                finished_at: self.cores[i].finished_at(),
                accesses: self.per_core_accesses[i],
                l1_misses: self.per_core_misses[i],
                camat: report.measurement,
                rob_stalls: self.cores[i].rob_stalls(),
                mem_stalls: self.cores[i].mem_stalls(),
                mem_active_cycles: self.per_core_mem_active[i],
                overlap_cycles: self.per_core_overlap[i],
            });
        }
        self.dram_layer.hits = self.dram.row_hits();
        self.dram_layer.misses = self.dram.row_misses() + self.dram.row_conflicts();
        Ok(SimResult {
            total_cycles: now,
            cores,
            l1_layer: self.l1_layer,
            l2_layer: self.l2_layer,
            dram_layer: self.dram_layer,
            dram_row_hit_rate: self.dram.row_hit_rate(),
            writebacks: self.writebacks,
            prefetches: self.prefetches,
        })
    }
}

/// Convenience: the APC reading of a [`LayerStats`].
pub fn layer_apc(stats: &LayerStats) -> Apc {
    stats.apc()
}

#[cfg(test)]
mod tests {
    use super::*;
    use c2_trace::synthetic::{
        PointerChaseGenerator, RandomGenerator, StridedGenerator, TraceGenerator,
    };
    use c2_trace::TraceBuilder;

    fn single(config: ChipConfig, trace: Trace) -> SimResult {
        Simulator::new(config).run(&[trace]).unwrap()
    }

    #[test]
    fn compute_only_trace_runs_at_issue_width() {
        let mut b = TraceBuilder::new();
        b.compute(4000);
        let r = single(ChipConfig::default_single_core(), b.finish());
        // 4-wide, no memory: IPC close to 4.
        assert!(r.ipc() > 3.0, "ipc {}", r.ipc());
        assert_eq!(r.cores[0].accesses, 0);
    }

    #[test]
    fn repeated_line_hits_in_l1() {
        let mut b = TraceBuilder::new();
        for _ in 0..1000 {
            b.compute(3).read(0x40);
        }
        let r = single(ChipConfig::default_single_core(), b.finish());
        assert_eq!(r.cores[0].accesses, 1000);
        // The cold miss plus the accesses that issued under it (misses
        // under miss merge in the MSHR and count as misses too); once the
        // fill lands everything hits.
        assert!(r.cores[0].l1_misses >= 1);
        assert!(
            r.cores[0].l1_miss_rate() < 0.1,
            "miss rate {}",
            r.cores[0].l1_miss_rate()
        );
        assert!(r.cores[0].camat.hit_time > 0.0);
    }

    #[test]
    fn streaming_misses_once_per_line_when_blocking() {
        // 64-byte lines, 8-byte stride: with a blocking scalar core
        // (no accesses in flight under a miss) exactly one miss per line.
        let trace = StridedGenerator::new(0, 8, 4096).generate();
        let mut cfg = ChipConfig::default_single_core();
        cfg.core = crate::config::CoreConfig::scalar_blocking();
        let r = single(cfg, trace);
        let mr = r.cores[0].l1_miss_rate();
        assert!((mr - 1.0 / 8.0).abs() < 0.02, "miss rate {mr}");
    }

    #[test]
    fn working_set_larger_than_l1_thrashes() {
        // 256 KiB working set over a 32 KiB L1: high L1 miss rate, but it
        // fits in the 2 MiB L2 so DRAM traffic stays bounded.
        let trace = RandomGenerator::new(0, 256 * 1024, 4000, 1).generate();
        let r = single(ChipConfig::default_single_core(), trace);
        assert!(
            r.cores[0].l1_miss_rate() > 0.5,
            "{}",
            r.cores[0].l1_miss_rate()
        );
        assert!(r.l2_layer.accesses > 0);
    }

    #[test]
    fn apc_decreases_down_the_hierarchy() {
        // The Fig 13 shape: APC_L1 > APC_L2 > APC_DRAM for a workload
        // with misses at every level.
        let trace = RandomGenerator::new(0, 8 * 1024 * 1024, 6000, 2).generate();
        let r = single(ChipConfig::default_single_core(), trace);
        let apc = r.layer_apc();
        let l1 = apc.get(MemoryLayer::L1).unwrap().value();
        let l2 = apc.get(MemoryLayer::Llc).unwrap().value();
        let dram = apc.get(MemoryLayer::Dram).unwrap().value();
        assert!(l1 > l2, "APC L1 {l1} vs L2 {l2}");
        assert!(l2 > dram, "APC L2 {l2} vs DRAM {dram}");
    }

    #[test]
    fn ooo_core_overlaps_misses_pointer_chase_does_not() {
        // Independent random misses overlap in a 128-entry ROB; a pointer
        // chase (serial dependence through the trace's own structure is
        // not modelled, but a 1-entry ROB is the architectural equivalent)
        // does not. Compare measured memory concurrency C.
        let random = RandomGenerator::new(0, 16 * 1024 * 1024, 3000, 3)
            .compute_per_access(1)
            .generate();
        let ooo = single(ChipConfig::default_single_core(), random.clone());
        let mut blocking_cfg = ChipConfig::default_single_core();
        blocking_cfg.core = crate::config::CoreConfig::scalar_blocking();
        let blocking = single(blocking_cfg, random);
        let c_ooo = ooo.cores[0].camat.concurrency();
        let c_blk = blocking.cores[0].camat.concurrency();
        assert!(
            c_ooo > c_blk + 0.3,
            "OoO C {c_ooo} should exceed blocking C {c_blk}"
        );
        // And the wall clock should reflect it.
        assert!(ooo.total_cycles < blocking.total_cycles);
    }

    #[test]
    fn streaming_has_better_dram_row_locality_than_chasing() {
        // Sequential lines walk DRAM rows in order (row-buffer hits);
        // a pointer chase over a >L2 footprint scatters across rows.
        let chase = PointerChaseGenerator::new(0, 1 << 20, 3000, 7).generate();
        let stream = StridedGenerator::new(0, 64, 3000)
            .compute_per_access(1)
            .generate();
        let chase_r = single(ChipConfig::default_single_core(), chase);
        let stream_r = single(ChipConfig::default_single_core(), stream);
        assert!(
            stream_r.dram_row_hit_rate > chase_r.dram_row_hit_rate + 0.2,
            "stream {} vs chase {}",
            stream_r.dram_row_hit_rate,
            chase_r.dram_row_hit_rate
        );
    }

    #[test]
    fn camat_identity_holds_in_simulation() {
        let trace = RandomGenerator::new(0, 1024 * 1024, 2000, 11).generate();
        let r = single(ChipConfig::default_single_core(), trace);
        let m = &r.cores[0].camat;
        assert!(
            (m.camat() - m.camat_direct()).abs() < 1e-9,
            "formula {} direct {}",
            m.camat(),
            m.camat_direct()
        );
        assert!(m.camat() <= m.amat() + 1e-9, "C-AMAT must not exceed AMAT");
    }

    #[test]
    fn multicore_shares_l2() {
        let traces: Vec<Trace> = (0..4)
            .map(|i| RandomGenerator::new(i * (4 << 20), 1024 * 1024, 2000, i).generate())
            .collect();
        let r = Simulator::new(ChipConfig::default_multi_core(4))
            .run(&traces)
            .unwrap();
        assert_eq!(r.cores.len(), 4);
        for c in &r.cores {
            assert_eq!(c.instructions, traces[0].instruction_count());
        }
        assert!(r.l2_layer.accesses > 0);
    }

    #[test]
    fn contention_slows_shared_hierarchy() {
        // The same working set run on 1 core vs duplicated on 8 cores:
        // per-core completion time must grow under contention.
        let make = |seed: u64| {
            RandomGenerator::new(0, 16 * 1024 * 1024, 1500, seed)
                .compute_per_access(1)
                .generate()
        };
        let solo = single(ChipConfig::default_single_core(), make(0));
        let traces: Vec<Trace> = (0..8).map(make).collect();
        let crowded = Simulator::new(ChipConfig::default_multi_core(8))
            .run(&traces)
            .unwrap();
        let solo_t = solo.cores[0].finished_at;
        let crowded_t = crowded.cores.iter().map(|c| c.finished_at).max().unwrap();
        assert!(
            crowded_t > solo_t,
            "8-core contended time {crowded_t} should exceed solo {solo_t}"
        );
    }

    #[test]
    fn bigger_l1_reduces_misses() {
        let trace = RandomGenerator::new(0, 128 * 1024, 12_000, 5).generate();
        let small = single(ChipConfig::default_single_core(), trace.clone());
        let mut big_cfg = ChipConfig::default_single_core();
        big_cfg.l1.size_bytes = 256 * 1024;
        let big = single(big_cfg, trace);
        assert!(
            big.cores[0].l1_misses < small.cores[0].l1_misses / 2,
            "big {} vs small {}",
            big.cores[0].l1_misses,
            small.cores[0].l1_misses
        );
    }

    #[test]
    fn writes_generate_writebacks() {
        // Write a working set larger than L1+L2 (L2 shrunk to 64 KiB so
        // dirty lines get evicted all the way to DRAM quickly).
        let trace = RandomGenerator::new(0, 8 * 1024 * 1024, 6000, 9)
            .write_fraction(1.0)
            .generate();
        let mut cfg = ChipConfig::default_single_core();
        cfg.l2.size_bytes = 64 * 1024;
        let r = single(cfg, trace);
        assert!(r.writebacks > 0, "no writebacks observed");
    }

    #[test]
    fn trace_count_mismatch_is_error() {
        let trace = StridedGenerator::new(0, 64, 10).generate();
        let err = Simulator::new(ChipConfig::default_multi_core(2))
            .run(&[trace])
            .unwrap_err();
        assert!(matches!(err, Error::TraceCountMismatch { .. }));
    }

    #[test]
    fn empty_trace_finishes_immediately() {
        let r = single(ChipConfig::default_single_core(), Trace::new());
        assert_eq!(r.total_cycles, 0);
        assert_eq!(r.total_instructions(), 0);
    }

    #[test]
    fn next_line_prefetch_helps_streaming() {
        // Sequential lines are perfectly predicted by a next-line
        // prefetcher: fewer demand misses and a shorter run.
        let trace = StridedGenerator::new(0, 64, 4000)
            .compute_per_access(1)
            .generate();
        let mut off = ChipConfig::default_single_core();
        off.core = crate::config::CoreConfig::scalar_blocking();
        let mut on = off.clone();
        on.l1.next_line_prefetch = true;
        let r_off = single(off, trace.clone());
        let r_on = single(on, trace);
        assert_eq!(r_off.prefetches, 0);
        assert!(r_on.prefetches > 1000, "prefetches {}", r_on.prefetches);
        // With a blocking core the next demand arrives before the
        // prefetch completes, so it still *counts* as a miss at lookup —
        // but it merges onto the in-flight prefetch and waits only the
        // residual latency: wall clock drops by ~2x.
        assert!(r_on.cores[0].l1_misses <= r_off.cores[0].l1_misses);
        assert!(
            r_on.total_cycles * 10 < r_off.total_cycles * 6,
            "prefetch cycles {} vs baseline {}",
            r_on.total_cycles,
            r_off.total_cycles
        );
    }

    #[test]
    fn prefetch_is_harmless_on_random_accesses() {
        let trace = RandomGenerator::new(0, 16 << 20, 3000, 13).generate();
        let mut on = ChipConfig::default_single_core();
        on.l1.next_line_prefetch = true;
        let r = single(on, trace.clone());
        let r_off = single(ChipConfig::default_single_core(), trace);
        // Same retired work; time within 2x either way (prefetches cost
        // bandwidth but never deadlock or corrupt accounting).
        assert_eq!(r.total_instructions(), r_off.total_instructions());
        assert!(r.total_cycles < 2 * r_off.total_cycles);
        assert_eq!(r.cores[0].accesses, r_off.cores[0].accesses);
    }

    #[test]
    fn deterministic_across_runs() {
        let trace = RandomGenerator::new(0, 1 << 20, 3000, 42).generate();
        let a = single(ChipConfig::default_single_core(), trace.clone());
        let b = single(ChipConfig::default_single_core(), trace);
        assert_eq!(a, b);
    }

    #[test]
    fn injected_request_fault_terminates_with_its_index() {
        use crate::fault::FaultPlan;
        let trace = RandomGenerator::new(0, 1 << 20, 3000, 17).generate();
        let mut cfg = ChipConfig::default_single_core();
        cfg.fault = FaultPlan {
            fail_at_request: Some(100),
            ..FaultPlan::default()
        };
        let err = Simulator::new(cfg).run(&[trace]).unwrap_err();
        match err {
            Error::InjectedFault { request, .. } => assert_eq!(request, 100),
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn request_fault_beyond_the_run_is_never_hit() {
        use crate::fault::FaultPlan;
        let trace = StridedGenerator::new(0, 64, 500).generate();
        let mut cfg = ChipConfig::default_single_core();
        cfg.fault = FaultPlan {
            fail_at_request: Some(1_000_000),
            ..FaultPlan::default()
        };
        assert!(Simulator::new(cfg).run(&[trace]).is_ok());
    }

    #[test]
    fn dram_spike_slows_the_run_with_identical_work() {
        use crate::fault::{CycleWindow, DramSpike, FaultPlan};
        let trace = RandomGenerator::new(0, 16 << 20, 2000, 23)
            .compute_per_access(1)
            .generate();
        let base = single(ChipConfig::default_single_core(), trace.clone());
        let mut cfg = ChipConfig::default_single_core();
        cfg.fault = FaultPlan {
            dram_spike: Some(DramSpike {
                window: CycleWindow::new(0, base.total_cycles),
                extra: 500,
            }),
            ..FaultPlan::default()
        };
        let spiked = single(cfg, trace);
        // Same retired work, correct accounting, strictly more cycles.
        assert_eq!(spiked.total_instructions(), base.total_instructions());
        assert_eq!(spiked.cores[0].accesses, base.cores[0].accesses);
        assert!(
            spiked.total_cycles > base.total_cycles,
            "spiked {} !> base {}",
            spiked.total_cycles,
            base.total_cycles
        );
    }

    #[test]
    fn mshr_starvation_window_slows_but_terminates() {
        use crate::fault::{CycleWindow, FaultPlan};
        let trace = RandomGenerator::new(0, 16 << 20, 2000, 29)
            .compute_per_access(1)
            .generate();
        let base = single(ChipConfig::default_single_core(), trace.clone());
        let mut cfg = ChipConfig::default_single_core();
        cfg.fault = FaultPlan {
            mshr_starvation: Some(CycleWindow::new(0, base.total_cycles * 2)),
            ..FaultPlan::default()
        };
        let starved = single(cfg, trace);
        assert_eq!(starved.total_instructions(), base.total_instructions());
        // One effective MSHR entry serializes misses: strictly slower.
        assert!(
            starved.total_cycles > base.total_cycles,
            "starved {} !> base {}",
            starved.total_cycles,
            base.total_cycles
        );
    }

    #[test]
    fn fault_plan_runs_are_deterministic() {
        use crate::fault::{CycleWindow, DramSpike, FaultPlan};
        let trace = RandomGenerator::new(0, 1 << 20, 2000, 31).generate();
        let mut cfg = ChipConfig::default_single_core();
        cfg.fault = FaultPlan {
            dram_spike: Some(DramSpike {
                window: CycleWindow::new(100, 5_000),
                extra: 77,
            }),
            mshr_starvation: Some(CycleWindow::new(2_000, 4_000)),
            ..FaultPlan::default()
        };
        let a = single(cfg.clone(), trace.clone());
        let b = single(cfg, trace);
        assert_eq!(a, b);
    }
}
