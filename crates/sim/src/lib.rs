//! A SIMT streaming-multiprocessor simulator with an ECC-protected register
//! file — the execution substrate standing in for the paper's Tesla P100.
//!
//! The simulator has two cooperating halves:
//!
//! * a **functional executor** ([`exec`]) that runs kernels written in the
//!   [`swapcodes_isa`] IR with full SIMT semantics (warps, divergence by
//!   PC-reconvergence, CTA barriers, shuffles, atomics), backed by a
//!   register file ([`regfile`]) that physically stores ECC check bits and
//!   decodes them on every read — which is exactly where SwapCodes detects
//!   pipeline errors. The executor emits a per-warp dynamic trace and
//!   supports architecture-level transient fault injection into instruction
//!   results ([`fault`]);
//! * a **timing model** ([`timing`]) that replays those traces on a
//!   cycle-level SM (in production it takes them from the campaign
//!   engine's traced pass, [`snapshot::traced_pass`], which records the
//!   executor's traces on the predecoded column core): greedy-then-oldest warp schedulers, a writeback-latency
//!   scoreboard (no register bypassing, §III-A), per-functional-unit issue
//!   throughput, a bandwidth- and latency-modelled memory system, and
//!   occupancy derived from register/thread/CTA limits ([`mod@occupancy`]).
//!
//! The [`profiler`] classifies dynamic instructions by provenance (the
//! paper's Fig. 13 categories) and traces operand values for gate-level
//! injection; [`power`] provides the activity-based power/energy estimates
//! behind Fig. 14.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
pub mod fault;
pub mod memory;
pub mod occupancy;
pub mod power;
pub mod predecode;
pub mod profiler;
pub mod recovery;
pub mod regfile;
pub mod snapshot;
pub mod tier2;
pub mod timing;

pub use exec::{CancelToken, ExecError, ExecOutcome, Executor, Launch, TraceEntry, WarpTrace};
pub use fault::{
    ControlTarget, FaultClass, FaultSpec, FaultSpecError, FaultTarget, StuckAtSpec, RESULT_WIDTH,
    WARP_WIDTH,
};
pub use memory::{CowMemory, CowShared, GlobalMemory, SharedMemory, DEFAULT_COW_PAGE_WORDS};
pub use occupancy::{occupancy, GpuConfig, Occupancy};
pub use predecode::PredecodedKernel;
pub use recovery::{
    RecoveryConfig, RecoveryEngine, RecoveryOutcome, RecoveryPolicy, RecoveryRun, RecoverySpec,
    RecoveryStats,
};
pub use regfile::{CowRegFile, Protection, RegFileEvent, WarpRegFile};
pub use snapshot::{
    traced_pass, CampaignEngine, EpochLadder, FastTrial, Fragment, GoldenCapture, TracedPass,
    WarpSnapshot,
};
pub use tier2::{CompiledKernel, ExecTier};
pub use timing::{simulate_kernel, KernelTiming, RecoveryCostModel, TimingConfig};
