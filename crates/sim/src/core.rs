//! Out-of-order core abstraction.
//!
//! The core is modelled by its two first-order resources: an issue width
//! and a reorder-buffer window. Instructions issue in order into the
//! ROB; compute instructions complete after `exec_latency`; memory
//! instructions complete when the memory hierarchy returns data.
//! Retirement is in order. Memory-level parallelism — the paper's `C_H`
//! and `C_M` — *emerges* from the window: a wide ROB lets many memory
//! requests overlap, a 1-entry ROB serializes them (the paper's C = 1).

use std::collections::VecDeque;

use c2_trace::{MemAccess, Trace};

use crate::config::CoreConfig;

/// ROB slot of a memory instruction whose access is still in flight.
/// Every other slot holds the cycle its instruction completes at.
const PENDING: u64 = u64::MAX;

/// What the core wants to issue next (peeked by the chip engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NextOp {
    /// A compute instruction.
    Compute,
    /// A memory access (the next one in the trace).
    Memory(MemAccess),
    /// Trace exhausted.
    Exhausted,
}

/// One simulated core executing one trace (borrowed, not copied).
#[derive(Debug)]
pub struct Core<'t> {
    config: CoreConfig,
    accesses: &'t [MemAccess],
    instruction_count: u64,
    /// Index of the next trace access to issue.
    next_access: usize,
    /// Dynamic instruction index of the next instruction to issue.
    next_instr: u64,
    /// One slot per in-flight instruction, oldest first: slot `k` holds
    /// dynamic instruction `retired + k`.
    rob: VecDeque<u64>,
    retired: u64,
    finished_at: u64,
    /// Whether the core issued or retired anything since the last
    /// [`Core::take_progress`] call (drives the overlap measurement).
    progress: bool,
    /// Whether the ROB head is a memory access known to be in flight:
    /// set when retirement stops at one or one is issued into an empty
    /// ROB, cleared by any completion.
    head_waits: bool,
    // Statistics
    rob_stalls: u64,
    mem_stalls: u64,
}

impl<'t> Core<'t> {
    /// Build a core that will execute `trace`.
    pub fn new(config: CoreConfig, trace: &'t Trace) -> Self {
        Core {
            config,
            accesses: trace.accesses(),
            instruction_count: trace.instruction_count(),
            next_access: 0,
            next_instr: 0,
            rob: VecDeque::with_capacity(config.rob_size),
            retired: 0,
            finished_at: 0,
            progress: false,
            head_waits: false,
            rob_stalls: 0,
            mem_stalls: 0,
        }
    }

    /// Whether every instruction has been issued *and* retired.
    pub fn finished(&self) -> bool {
        self.retired >= self.instruction_count && self.rob.is_empty()
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Cycle at which the last instruction retired (0 until finished).
    pub fn finished_at(&self) -> u64 {
        self.finished_at
    }

    /// ROB-full issue stalls observed.
    pub fn rob_stalls(&self) -> u64 {
        self.rob_stalls
    }

    /// Memory-structural issue stalls observed (ports/MSHRs).
    pub fn mem_stalls(&self) -> u64 {
        self.mem_stalls
    }

    /// Total dynamic instructions this core will execute.
    pub fn instruction_count(&self) -> u64 {
        self.instruction_count
    }

    /// Notification from the memory system that the access of dynamic
    /// instruction `instr` completed.
    pub fn complete_request(&mut self, instr: u64) {
        let slot = &mut self.rob[(instr - self.retired) as usize];
        debug_assert_eq!(
            *slot, PENDING,
            "instruction {instr} is not a pending access"
        );
        *slot = 0;
        self.head_waits = false;
    }

    /// Retire up to `issue_width` completed instructions from the ROB
    /// head (in order).
    pub fn retire(&mut self, now: u64) {
        self.head_waits = false;
        for _ in 0..self.config.issue_width {
            let Some(&done_at) = self.rob.front() else {
                break;
            };
            if done_at > now {
                self.head_waits = done_at == PENDING;
                break;
            }
            self.rob.pop_front();
            self.retired += 1;
            self.progress = true;
            if self.retired == self.instruction_count && self.rob.is_empty() {
                self.finished_at = now;
            }
        }
    }

    /// What the next instruction to issue is.
    pub fn peek(&self) -> NextOp {
        if self.next_instr >= self.instruction_count {
            return NextOp::Exhausted;
        }
        match self.accesses.get(self.next_access) {
            Some(a) if a.instr == self.next_instr => NextOp::Memory(*a),
            _ => NextOp::Compute,
        }
    }

    /// Whether the ROB has room for another instruction.
    pub fn rob_has_space(&self) -> bool {
        self.rob.len() < self.config.rob_size
    }

    /// Record a ROB-full stall for this cycle.
    pub fn note_rob_stall(&mut self) {
        self.rob_stalls += 1;
    }

    /// Record `cycles` ROB-full stalls at once (cycles the engine did
    /// not step because the core was blocked on memory).
    pub fn note_rob_stalls(&mut self, cycles: u64) {
        self.rob_stalls += cycles;
    }

    /// Whether the core can do nothing until the memory system answers:
    /// its ROB head is a memory access still in flight, and it cannot
    /// issue because the ROB is full or the trace is fully issued. Each
    /// such cycle retires nothing, issues nothing and changes no state
    /// but the ROB-stall counter, so the engine stops stepping the core
    /// until one of its requests makes progress.
    ///
    /// Conservative: it may answer `false` for a blocked core (when
    /// retirement last stopped on its width rather than on the waiting
    /// access), never `true` for one that could make progress.
    pub fn blocked_on_memory(&self) -> bool {
        self.head_waits && (!self.rob_has_space() || self.next_instr >= self.instruction_count)
    }

    /// Record a memory-structural stall for this cycle.
    pub fn note_mem_stall(&mut self) {
        self.mem_stalls += 1;
    }

    /// Issue the pending compute instruction (caller checked `peek`).
    pub fn issue_compute(&mut self, now: u64) {
        debug_assert!(self.rob_has_space());
        self.rob.push_back(now + self.config.exec_latency as u64);
        self.next_instr += 1;
        self.progress = true;
    }

    /// Issue the pending memory instruction (caller checked `peek`; the
    /// access's `instr` names it in [`Core::complete_request`]).
    pub fn issue_memory(&mut self) {
        debug_assert!(self.rob_has_space());
        // Its request is only just created: it cannot have completed.
        self.head_waits |= self.rob.is_empty();
        self.rob.push_back(PENDING);
        self.next_instr += 1;
        self.next_access += 1;
        self.progress = true;
    }

    /// The configured issue width.
    pub fn issue_width(&self) -> usize {
        self.config.issue_width
    }

    /// Whether the core made pipeline progress (issued or retired) since
    /// the previous call; resets the flag.
    pub fn take_progress(&mut self) -> bool {
        std::mem::take(&mut self.progress)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c2_trace::TraceBuilder;

    fn small_trace() -> Trace {
        let mut b = TraceBuilder::new();
        b.compute(2).read(64).compute(1).read(128);
        b.finish()
    }

    #[test]
    fn peek_distinguishes_compute_and_memory() {
        let t = small_trace();
        let core = Core::new(CoreConfig::default_ooo(), &t);
        assert_eq!(core.peek(), NextOp::Compute);
    }

    #[test]
    fn compute_only_trace_retires_everything() {
        let mut b = TraceBuilder::new();
        b.compute(10);
        let t = b.finish();
        let mut core = Core::new(
            CoreConfig {
                issue_width: 2,
                rob_size: 4,
                exec_latency: 1,
            },
            &t,
        );
        let mut now = 0;
        while !core.finished() && now < 100 {
            core.retire(now);
            for _ in 0..2 {
                if core.rob_has_space() && core.peek() == NextOp::Compute {
                    core.issue_compute(now);
                }
            }
            now += 1;
        }
        core.retire(now);
        assert!(core.finished());
        assert_eq!(core.retired(), 10);
        // 10 instructions, width 2, ROB 4: bounded by width -> ~>=5 cycles.
        assert!(core.finished_at() >= 5);
    }

    #[test]
    fn memory_instruction_blocks_retirement_until_completed() {
        let t = small_trace();
        let mut core = Core::new(CoreConfig::default_ooo(), &t);
        // Issue the two compute instructions and the first memory access.
        core.issue_compute(0);
        core.issue_compute(0);
        match core.peek() {
            NextOp::Memory(a) => assert_eq!(a.addr, 64),
            other => panic!("expected memory, got {other:?}"),
        }
        core.issue_memory();
        core.retire(5);
        // The two computes retired; the memory op gates the head.
        assert_eq!(core.retired(), 2);
        core.retire(6);
        assert_eq!(core.retired(), 2);
        // Dynamic instruction 2 is the access.
        core.complete_request(2);
        core.retire(7);
        assert_eq!(core.retired(), 3);
    }

    #[test]
    fn out_of_order_completions_retire_in_order() {
        let mut b = TraceBuilder::new();
        b.read(0).read(64).read(128).read(192);
        let t = b.finish();
        let mut core = Core::new(
            CoreConfig {
                issue_width: 4,
                rob_size: 8,
                exec_latency: 1,
            },
            &t,
        );
        let mut instrs = Vec::new();
        while let NextOp::Memory(a) = core.peek() {
            core.issue_memory();
            instrs.push(a.instr);
        }
        assert_eq!(instrs, [0, 1, 2, 3]);
        // The younger accesses complete first: nothing may retire past
        // the waiting head.
        core.complete_request(3);
        core.complete_request(1);
        core.retire(10);
        assert_eq!(core.retired(), 0);
        assert!(core.blocked_on_memory(), "the head still waits");
        // The head completes: it and the completed access behind it
        // retire, then the still-pending instruction 2 stops retirement.
        core.complete_request(0);
        core.retire(11);
        assert_eq!(core.retired(), 2);
        core.complete_request(2);
        core.retire(12);
        assert_eq!(core.retired(), 4);
        assert!(core.finished());
        assert_eq!(core.finished_at(), 12);
    }

    #[test]
    fn rob_capacity_limits_inflight() {
        let mut b = TraceBuilder::new();
        b.compute(8);
        let t = b.finish();
        let mut core = Core::new(
            CoreConfig {
                issue_width: 8,
                rob_size: 2,
                exec_latency: 5,
            },
            &t,
        );
        core.issue_compute(0);
        core.issue_compute(0);
        assert!(!core.rob_has_space());
    }

    #[test]
    fn finished_requires_full_retirement() {
        let t = small_trace();
        let mut core = Core::new(CoreConfig::default_ooo(), &t);
        assert!(!core.finished());
        // Drive to completion manually.
        let mut now = 0u64;
        let mut pending: Vec<(u64, u64)> = Vec::new(); // (ready_at, instr)
        while !core.finished() && now < 1000 {
            for (ready, instr) in &pending {
                if *ready <= now {
                    core.complete_request(*instr);
                }
            }
            pending.retain(|(ready, _)| *ready > now);
            core.retire(now);
            for _ in 0..core.issue_width() {
                if !core.rob_has_space() {
                    break;
                }
                match core.peek() {
                    NextOp::Compute => core.issue_compute(now),
                    NextOp::Memory(a) => {
                        core.issue_memory();
                        pending.push((now + 10, a.instr));
                    }
                    NextOp::Exhausted => break,
                }
            }
            now += 1;
        }
        assert!(core.finished(), "core did not finish");
        assert_eq!(core.retired(), t.instruction_count());
        assert!(core.finished_at() >= 10, "memory latency must show up");
    }

    #[test]
    fn stall_counters() {
        let t = small_trace();
        let mut core = Core::new(CoreConfig::default_ooo(), &t);
        core.note_rob_stall();
        core.note_mem_stall();
        core.note_mem_stall();
        assert_eq!(core.rob_stalls(), 1);
        assert_eq!(core.mem_stalls(), 2);
    }
}
