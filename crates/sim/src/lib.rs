//! # c2-sim — a trace-driven cycle-level many-core simulator
//!
//! This crate is the reproduction's substitute for the paper's GEM5 +
//! DRAMSim2 stack (§IV): a deterministic, trace-driven, cycle-level
//! simulator of a chip multiprocessor with
//!
//! * out-of-order cores abstracted by issue width and a reorder-buffer
//!   window ([`core`]),
//! * a two-level cache hierarchy — private, banked, multi-ported,
//!   *non-blocking* (MSHR-backed) L1s and a shared banked L2
//!   ([`cache`], [`mshr`]),
//! * a DRAM model with per-bank row-buffer state machines and
//!   tRCD/tCAS/tRP timing, in the spirit of DRAMSim2 ([`dram`]),
//! * a simple latency/bandwidth interconnect between levels,
//! * per-layer APC/C-AMAT instrumentation, with the paper's Fig 4
//!   HCD/MCD detector attached to the L1 ([`metrics`]),
//! * the silicon-area-to-configuration mapping used by the DSE
//!   (Pollack's rule for cores, bytes/mm² for caches) ([`area`]).
//!
//! It is *not* a microarchitecturally faithful model — the analytical
//! model only requires that the simulator expose the right sensitivities
//! (cache capacity → miss rate, MSHRs/banking/ROB → memory concurrency,
//! DRAM banking → off-chip bandwidth), which it does, with every metric
//! measured rather than assumed.
//!
//! ```
//! use c2_sim::{ChipConfig, Simulator};
//! use c2_trace::synthetic::{StridedGenerator, TraceGenerator};
//!
//! let config = ChipConfig::default_single_core();
//! let trace = StridedGenerator::new(0, 64, 2_000).generate();
//! let result = Simulator::new(config).run(&[trace]).unwrap();
//! assert!(result.total_cycles > 0);
//! assert!(result.cores[0].camat.accesses == 2_000);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod area;
pub mod cache;
pub mod chip;
pub mod config;
pub mod core;
pub mod dram;
pub mod fault;
pub mod metrics;
pub mod mshr;
pub mod oracle;
pub mod request;

pub use area::{AreaModel, SiliconBudget};
pub use cache::CacheArray;
pub use chip::{SimResult, Simulator};
pub use config::{CacheConfig, ChipConfig, CoreConfig, DramConfig, NocConfig};
pub use dram::Dram;
pub use fault::{CycleWindow, DramSpike, FaultPlan, OracleHang};
pub use metrics::{LayerStats, PerCoreStats};
pub use mshr::MshrFile;
pub use oracle::{FaultyOracle, SharedOracle};

/// Errors from simulator construction or execution.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A configuration field was invalid.
    InvalidConfig(&'static str),
    /// The number of traces does not match the number of cores.
    TraceCountMismatch {
        /// Cores configured.
        cores: usize,
        /// Traces supplied.
        traces: usize,
    },
    /// The simulation exceeded its cycle budget (likely deadlock).
    CycleBudgetExceeded {
        /// Budget that was exceeded.
        budget: u64,
    },
    /// A fault injected by the configured [`fault::FaultPlan`] was
    /// declared fatal and terminated the simulation.
    InjectedFault {
        /// 1-based issue-order index of the request that tripped it.
        request: u64,
        /// Cycle at which the fault fired.
        cycle: u64,
    },
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::InvalidConfig(what) => write!(f, "invalid configuration: {what}"),
            Error::TraceCountMismatch { cores, traces } => {
                write!(f, "{cores} cores but {traces} traces")
            }
            Error::CycleBudgetExceeded { budget } => {
                write!(f, "simulation exceeded {budget} cycles")
            }
            Error::InjectedFault { request, cycle } => {
                write!(f, "injected fault on request {request} at cycle {cycle}")
            }
        }
    }
}

impl std::error::Error for Error {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;
