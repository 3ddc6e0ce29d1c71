//! Functional SIMT execution with trace capture and fault injection.
//!
//! Warps execute in lockstep with divergence handled by PC-reconvergence:
//! each warp holds a set of `(pc, mask)` fragments and always steps the
//! fragment with the smallest PC, which reconverges structured control flow
//! at the earliest join point — serialising divergent paths exactly like a
//! hardware SIMT stack.

use swapcodes_isa::{
    CmpOp, CmpTy, Instr, Kernel, MemSpace, MemWidth, Op, Reg, Role, ShflMode, SpecialReg, Src,
};

use crate::fault::{ControlTarget, FaultSpec, FaultTarget};
use crate::memory::{GlobalMemory, SharedMemory};
use crate::profiler::{traced_unit, OperandTrace, ProfileCounts};
use crate::recovery::{RecoverySpec, RecoveryStats};
use crate::regfile::{Protection, RegFileEvent, WarpRegFile};
use crate::snapshot::{Fragment, WarpSnapshot};
use crate::tier2::ExecTier;

/// Kernel launch geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Launch {
    /// Number of CTAs in the grid.
    pub ctas: u32,
    /// Threads per CTA (multiple of 32 recommended).
    pub threads_per_cta: u32,
    /// Shared memory words per CTA.
    pub shared_words: u32,
}

impl Launch {
    /// A 1-D launch with no shared memory.
    #[must_use]
    pub fn grid(ctas: u32, threads_per_cta: u32) -> Self {
        Self {
            ctas,
            threads_per_cta,
            shared_words: 0,
        }
    }

    /// Warps per CTA.
    #[must_use]
    pub fn warps_per_cta(&self) -> u32 {
        self.threads_per_cta.div_ceil(32)
    }
}

/// Cooperative cancellation handle for long-running executions.
///
/// A clone shares the underlying flag: the campaign service hands one token
/// to every trial of a tenant campaign, and a `cancel()` from the control
/// plane stops each in-flight [`crate::snapshot::CampaignEngine`] trial at
/// its next issue boundary with [`ExecError::Cancelled`]. Checks are relaxed
/// atomic loads, performed only when a token is armed, so the uncancellable
/// hot path pays one branch.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(std::sync::Arc<std::sync::atomic::AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.0.store(true, std::sync::atomic::Ordering::Relaxed);
    }

    /// Whether cancellation has been requested on any clone.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.0.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// Executor configuration.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Register-file protection mode.
    pub protection: Protection,
    /// Optional transient fault to inject.
    pub fault: Option<FaultSpec>,
    /// Capture per-warp dynamic traces (needed by the timing model).
    pub collect_trace: bool,
    /// Capture the global issue log: the kernel PC of every dynamic
    /// warp-instruction, indexed by its global dynamic-issue number. Only
    /// meaningful on fault-free runs with recovery unarmed (rollback cannot
    /// truncate a global log); the ACE analyzer uses it to map a
    /// control-strike `eligible_index` back to the struck PC.
    pub collect_issue_log: bool,
    /// Capture arithmetic operand streams (for gate-level injection).
    pub trace_operands: bool,
    /// Cap on captured operand tuples per unit.
    pub operand_cap: usize,
    /// Soft cap on executed dynamic warp-instructions: the run stops and is
    /// flagged `truncated` (used to bound trace capture, mirroring the
    /// paper's "halt after 100,000 instructions").
    pub max_dynamic: u64,
    /// Hard step budget ("fuel"): exceeding it aborts the run with
    /// [`ExecError::Hang`] — the simulator's driver-watchdog timeout.
    /// Injection campaigns set this so a fault that corrupts a loop bound
    /// or branch predicate cannot spin the host forever.
    pub fuel: Option<u64>,
    /// Execute only the first `n` CTAs (e.g. one occupancy wave).
    pub cta_limit: Option<u32>,
    /// Arm in-executor recovery: periodic warp checkpoints with rollback and
    /// replay on detection, and (opt-in) in-place ECC storage correction.
    /// `None` (the default) leaves execution byte-for-byte identical to the
    /// unrecovered executor.
    pub recovery: Option<RecoverySpec>,
    /// Execution tier for the fast-forward campaign engine
    /// ([`crate::snapshot::CampaignEngine::capture_config`]): the tier-1
    /// predecoded interpreter or the tier-2 closure-compiled threaded code
    /// ([`crate::tier2`]). The reference executor itself always interprets
    /// the `Op` enum and ignores this field.
    pub tier: ExecTier,
    /// Copy-on-write page size in 32-bit words for the campaign engine's
    /// global-memory overlay ([`crate::snapshot::CampaignEngine`]); rounded
    /// up to a power of two at capture. The reference executor ignores it.
    pub cow_page_words: usize,
}

impl Default for ExecConfig {
    fn default() -> Self {
        Self {
            protection: Protection::None,
            fault: None,
            collect_trace: false,
            collect_issue_log: false,
            trace_operands: false,
            operand_cap: 10_000,
            max_dynamic: 80_000_000,
            fuel: None,
            cta_limit: None,
            recovery: None,
            tier: ExecTier::Tier1,
            cow_page_words: crate::memory::DEFAULT_COW_PAGE_WORDS,
        }
    }
}

/// One executed warp-instruction in a dynamic trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Index of the instruction within the kernel.
    pub kidx: u32,
    /// Active lane mask.
    pub mask: u32,
    /// Memory transactions generated (128-byte segments for global
    /// accesses; serialised lane count for atomics).
    pub txns: u8,
}

/// The dynamic trace of one warp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarpTrace {
    /// CTA index.
    pub cta: u32,
    /// Warp index within the CTA.
    pub warp: u32,
    /// Executed instructions in order.
    pub entries: Vec<TraceEntry>,
}

/// How (and whether) an error was detected during execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Detection {
    /// Nothing detected.
    None,
    /// A software-duplication checking trap fired.
    Trap {
        /// Dynamic warp-instruction index at which the trap hit.
        at: u64,
    },
    /// The register-file decoder raised a DUE on a read.
    Due {
        /// Dynamic warp-instruction index of the reading instruction.
        at: u64,
        /// Whether reporting attributed the error to the pipeline.
        pipeline_suspected: bool,
    },
    /// A misaligned or out-of-bounds memory access faulted (the simulator's
    /// analogue of a GPU memory-protection error — a detectable crash).
    MemFault {
        /// Dynamic warp-instruction index of the faulting access.
        at: u64,
    },
    /// A warp reached a barrier while divergent (possible only under fault
    /// injection): the hardware would hang and the driver watchdog would
    /// kill the kernel — a detectable crash.
    Hang {
        /// Dynamic warp-instruction index of the divergent barrier.
        at: u64,
    },
}

/// Why a (fueled) execution could not run to completion.
///
/// These are *host-side* structured errors — conditions under which the
/// simulator itself must give up — as opposed to [`Detection`], which models
/// what the simulated GPU's protection hardware observes. Injection
/// campaigns map these into outcome buckets (a hung kernel is a
/// timeout-detected DUE) instead of panicking or looping forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecError {
    /// The step budget ([`ExecConfig::fuel`]) was exhausted: the kernel is
    /// treated as hung and killed by the driver watchdog.
    Hang {
        /// Dynamic warp-instructions executed before the budget ran out.
        steps: u64,
    },
    /// A *fault-free* run accessed memory out of bounds or misaligned — a
    /// workload or transform bug surfaced structurally. (Under fault
    /// injection the same violation is modeled as a precise memory trap,
    /// [`Detection::MemFault`], not a host error.)
    OutOfBoundsAccess {
        /// Faulting byte address.
        addr: u32,
        /// Dynamic warp-instruction index of the faulting access.
        at: u64,
    },
    /// The kernel or launch is malformed (e.g. it cannot fit on the SM at
    /// all), so no execution is possible.
    InvalidOp {
        /// Human-readable reason.
        what: &'static str,
    },
    /// The executor's internal watchdog fired: live warps are blocked with
    /// no forward progress possible (scheduler deadlock).
    Trap {
        /// Dynamic warp-instruction index at which progress stopped.
        at: u64,
    },
    /// The run was stopped by an armed [`CancelToken`] (a tenant cancelled
    /// its campaign, or the service is draining for shutdown). The partial
    /// state is meaningless: callers must discard the trial, never tally it.
    Cancelled {
        /// Dynamic warp-instruction index at which the token was observed.
        at: u64,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Hang { steps } => {
                write!(f, "hang: step budget exhausted after {steps} instructions")
            }
            Self::OutOfBoundsAccess { addr, at } => {
                write!(
                    f,
                    "out-of-bounds access at address {addr:#x} (instruction {at})"
                )
            }
            Self::InvalidOp { what } => write!(f, "invalid kernel/launch: {what}"),
            Self::Trap { at } => write!(f, "deadlock trap at instruction {at}"),
            Self::Cancelled { at } => write!(f, "cancelled at instruction {at}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Result of a functional execution.
#[derive(Debug)]
pub struct ExecOutcome {
    /// Detection result (kernel halts at the first trap/DUE).
    pub detection: Detection,
    /// Storage corrections performed by the DP reporting.
    pub corrected: u64,
    /// Executed dynamic warp-instructions.
    pub dynamic_instructions: u64,
    /// Whether `max_dynamic` truncated the run.
    pub truncated: bool,
    /// Per-warp traces (when requested).
    pub traces: Vec<WarpTrace>,
    /// Global issue log (when requested): `issue_log[i]` is the kernel PC
    /// of the `i`-th dynamically issued warp-instruction.
    pub issue_log: Vec<u32>,
    /// Dynamic code-mix counts.
    pub profile: ProfileCounts,
    /// Captured operand streams (when requested).
    pub operands: OperandTrace,
    /// Number of fault activations actually applied.
    pub faults_applied: u32,
    /// Recovery work performed in-executor (checkpoints, warp replays,
    /// in-place corrections). All-zero when recovery is unarmed.
    pub recovery: RecoveryStats,
}

/// Functional kernel executor.
#[derive(Debug, Default)]
pub struct Executor {
    /// Configuration for subsequent [`Executor::run`] calls.
    pub config: ExecConfig,
}

impl Executor {
    /// An executor with default (unprotected, untraced) configuration.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Run `kernel` over `launch`, mutating `mem` in place.
    ///
    /// # Errors
    ///
    /// Returns a structured [`ExecError`] instead of panicking or looping
    /// forever: fuel exhaustion ([`ExecError::Hang`]), an out-of-bounds
    /// access on a fault-free run ([`ExecError::OutOfBoundsAccess`]), or a
    /// scheduler deadlock ([`ExecError::Trap`]). Under fault injection,
    /// memory violations surface as [`Detection::MemFault`] in the `Ok`
    /// outcome rather than as errors.
    pub fn run(
        &self,
        kernel: &Kernel,
        launch: Launch,
        mem: &mut GlobalMemory,
    ) -> Result<ExecOutcome, ExecError> {
        let regs = kernel.register_count().max(1);
        let mut r = Runner {
            kernel,
            launch,
            cfg: &self.config,
            mem,
            regs,
            detection: Detection::None,
            corrected: 0,
            dyn_count: 0,
            truncated: false,
            error: None,
            traces: Vec::new(),
            issue_log: Vec::new(),
            profile: ProfileCounts::default(),
            operands: OperandTrace::with_cap(self.config.operand_cap),
            faults_applied: 0,
            eligible_seen: 0,
            pending_due: None,
            rstats: RecoveryStats::default(),
            fuel_refund: 0,
            control_delivered: false,
        };
        r.run();
        if let Some(e) = r.error {
            return Err(e);
        }
        Ok(ExecOutcome {
            detection: r.detection,
            corrected: r.corrected,
            dynamic_instructions: r.dyn_count,
            truncated: r.truncated,
            traces: r.traces,
            issue_log: r.issue_log,
            profile: r.profile,
            operands: r.operands,
            faults_applied: r.faults_applied,
            recovery: r.rstats,
        })
    }
}

/// A recovery checkpoint: the shared architectural [`WarpSnapshot`] plus
/// the trace length, which lets rollback discard replayed entries, and the
/// barrier wait flag — a control fault can corrupt barrier state, and a
/// replay that resurrects the wrong wait state would deadlock the CTA.
#[derive(Clone)]
struct WarpCheckpoint {
    snap: WarpSnapshot,
    trace_len: usize,
    waiting_bar: bool,
}

struct Warp {
    cta: u32,
    wid: u32,
    frags: Vec<Fragment>,
    rf: WarpRegFile,
    preds: [u8; 32],
    waiting_bar: bool,
    trace: Vec<TraceEntry>,
    /// Last architectural snapshot (when recovery is armed).
    ckpt: Option<Box<WarpCheckpoint>>,
    /// Instructions this warp executed since its last checkpoint.
    since_ckpt: u64,
    /// State escaped the warp (store/atomic) since the last checkpoint:
    /// rollback would not undo it, so replay is illegal until the next
    /// checkpoint.
    dirty: bool,
    /// Rollbacks already spent on this warp (bounded retry).
    replays: u32,
}

impl Warp {
    fn done(&self) -> bool {
        self.frags.is_empty()
    }
}

struct Runner<'a> {
    kernel: &'a Kernel,
    launch: Launch,
    cfg: &'a ExecConfig,
    mem: &'a mut GlobalMemory,
    regs: u32,
    detection: Detection,
    corrected: u64,
    dyn_count: u64,
    truncated: bool,
    error: Option<ExecError>,
    traces: Vec<WarpTrace>,
    issue_log: Vec<u32>,
    profile: ProfileCounts,
    operands: OperandTrace,
    faults_applied: u32,
    eligible_seen: u64,
    pending_due: Option<bool>,
    rstats: RecoveryStats,
    /// Instructions discarded by rollbacks, refunded to the fuel budget so
    /// every replay attempt runs on a fresh budget.
    fuel_refund: u64,
    /// A control-state strike is one-shot: once delivered it never recurs,
    /// even across warp replays (the replayed instructions re-execute on
    /// already-corrupted control state, exactly like a transient strike
    /// whose eligible counter has moved past it).
    control_delivered: bool,
}

impl Runner<'_> {
    /// A memory violation: under fault injection this is the GPU's precise
    /// memory-protection trap (a detectable crash); on a fault-free run it
    /// is a workload bug and becomes a structured host error.
    fn mem_fault(&mut self, addr: u32) {
        if self.cfg.fault.is_some() {
            if self.detection == Detection::None {
                self.detection = Detection::MemFault { at: self.dyn_count };
            }
        } else if self.error.is_none() {
            self.error = Some(ExecError::OutOfBoundsAccess {
                addr,
                at: self.dyn_count,
            });
        }
    }

    fn halted(&self) -> bool {
        self.detection != Detection::None || self.truncated || self.error.is_some()
    }

    /// Attempt warp-level replay of a detection: roll `w` back to its last
    /// checkpoint and clear the detection so execution resumes from the
    /// snapshot. Legal only when recovery is armed, the warp has a
    /// checkpoint, nothing escaped the warp since it was taken, and the
    /// per-warp replay budget is not exhausted. The discarded instructions
    /// are refunded to the fuel budget.
    fn try_rollback(&mut self, w: &mut Warp) -> bool {
        let Some(spec) = self.cfg.recovery else {
            return false;
        };
        if w.dirty || w.replays >= spec.max_replays_per_warp {
            return false;
        }
        let Some(ck) = &w.ckpt else {
            return false;
        };
        w.frags = ck.snap.frags.clone();
        w.preds = ck.snap.preds;
        w.rf = ck.snap.rf.clone();
        w.trace.truncate(ck.trace_len);
        w.waiting_bar = ck.waiting_bar;
        w.replays += 1;
        self.rstats.replays += 1;
        self.rstats.replayed_instructions += w.since_ckpt;
        self.fuel_refund = self.fuel_refund.saturating_add(w.since_ckpt);
        w.since_ckpt = 0;
        self.detection = Detection::None;
        self.pending_due = None;
        true
    }

    fn run(&mut self) {
        let ctas = self
            .cfg
            .cta_limit
            .map_or(self.launch.ctas, |l| l.min(self.launch.ctas));
        'grid: for cta in 0..ctas {
            let mut shared = SharedMemory::new(self.launch.shared_words as usize);
            let mut warps: Vec<Warp> = (0..self.launch.warps_per_cta())
                .map(|wid| {
                    let threads = self.launch.threads_per_cta;
                    let first = wid * 32;
                    let count = threads.saturating_sub(first).min(32);
                    let mask = if count >= 32 {
                        u32::MAX
                    } else {
                        (1u32 << count) - 1
                    };
                    Warp {
                        cta,
                        wid,
                        frags: vec![Fragment { pc: 0, mask }],
                        rf: WarpRegFile::new(self.regs, self.cfg.protection),
                        preds: [0; 32],
                        waiting_bar: false,
                        trace: Vec::new(),
                        ckpt: None,
                        since_ckpt: 0,
                        dirty: false,
                        replays: 0,
                    }
                })
                .collect();

            loop {
                let mut progressed = false;
                for w in &mut warps {
                    if w.done() || w.waiting_bar {
                        continue;
                    }
                    // A quantum of instructions before rotating warps.
                    for _ in 0..64 {
                        if w.done() || w.waiting_bar {
                            break;
                        }
                        step(self, w, &mut shared);
                        progressed = true;
                        if self.detection != Detection::None
                            && !self.truncated
                            && self.error.is_none()
                            && self.try_rollback(w)
                        {
                            continue;
                        }
                        if self.halted() {
                            break 'grid;
                        }
                    }
                }
                // Barrier release: all live warps waiting.
                let live: Vec<&mut Warp> = warps.iter_mut().filter(|w| !w.done()).collect();
                if !live.is_empty() && live.iter().all(|w| w.waiting_bar) {
                    let recovering = self.cfg.recovery.is_some();
                    for w in live {
                        w.waiting_bar = false;
                        // Re-checkpoint at the barrier release: other warps
                        // now assume this warp reached the barrier, so any
                        // rollback past it would deadlock the CTA.
                        if recovering {
                            checkpoint(&mut self.rstats, w);
                        }
                    }
                    progressed = true;
                }
                if warps.iter().all(Warp::done) {
                    break;
                }
                if !progressed {
                    // Live warps blocked with no release possible: the
                    // internal watchdog turns the deadlock into an error
                    // instead of asserting the host process away.
                    self.error = Some(ExecError::Trap { at: self.dyn_count });
                    break 'grid;
                }
            }

            if self.cfg.collect_trace {
                for w in warps {
                    self.traces.push(WarpTrace {
                        cta: w.cta,
                        warp: w.wid,
                        entries: w.trace,
                    });
                }
            }
        }
    }
}

/// Snapshot `w`'s architectural state. Also resets the dirty flag: stores
/// before this point are no longer at risk of re-execution, so rollback to
/// *this* checkpoint is legal again.
fn checkpoint(rstats: &mut RecoveryStats, w: &mut Warp) {
    w.ckpt = Some(Box::new(WarpCheckpoint {
        snap: WarpSnapshot {
            frags: w.frags.clone(),
            preds: w.preds,
            rf: w.rf.clone(),
        },
        trace_len: w.trace.len(),
        waiting_bar: w.waiting_bar,
    }));
    w.since_ckpt = 0;
    w.dirty = false;
    rstats.checkpoints += 1;
}

/// Execute one instruction of one warp.
#[allow(clippy::too_many_lines)]
fn step(r: &mut Runner<'_>, w: &mut Warp, shared: &mut SharedMemory) {
    if let Some(spec) = r.cfg.recovery {
        if w.ckpt.is_none() || w.since_ckpt >= spec.checkpoint_interval {
            checkpoint(&mut r.rstats, w);
        }
    }
    // Pick the fragment with the smallest PC.
    let fi = w
        .frags
        .iter()
        .enumerate()
        .min_by_key(|(_, f)| f.pc)
        .map(|(i, _)| i)
        .expect("stepping a finished warp");
    let pc = w.frags[fi].pc;
    if pc >= r.kernel.len() {
        w.frags.remove(fi);
        return;
    }
    let instr = r.kernel.instrs()[pc];

    // Control-state strike: delivered to the warp issuing global dynamic
    // instruction `eligible_index`, before guard evaluation (a predicate
    // strike misguards the very instruction it lands on). State-only
    // targets corrupt the warp's control state and abort the issue — the
    // fetched instruction is lost, the next fetch sees corrupted state —
    // without advancing the dynamic counter, so delivery points line up
    // across execution engines.
    if let Some(f) = r.cfg.fault {
        if let Some(ct) = f.control_target() {
            if !r.control_delivered && r.dyn_count >= f.eligible_index {
                r.control_delivered = true;
                r.faults_applied += 1;
                match ct {
                    ControlTarget::Predicate => {
                        w.preds[f.lane as usize] ^= f.xor_mask as u8;
                    }
                    ControlTarget::ActiveMask => {
                        w.frags[fi].mask ^= f.xor_mask as u32;
                        if w.frags[fi].mask == 0 {
                            w.frags.remove(fi);
                        }
                        return;
                    }
                    ControlTarget::Barrier => {
                        w.waiting_bar = !w.waiting_bar;
                        return;
                    }
                    ControlTarget::SchedulerSlot => {
                        w.frags[fi].pc ^= f.xor_mask as usize;
                        return;
                    }
                }
            }
        }
    }
    let frag_mask = w.frags[fi].mask;

    // Guard evaluation.
    let mut exec_mask = 0u32;
    for lane in 0..32u32 {
        if frag_mask & (1 << lane) == 0 {
            continue;
        }
        let pass = match instr.guard {
            None => true,
            Some((p, pol)) => {
                let bit = p.is_true() || w.preds[lane as usize] & (1 << p.0) != 0;
                bit == pol
            }
        };
        if pass {
            exec_mask |= 1 << lane;
        }
    }

    if r.cfg.collect_issue_log {
        r.issue_log.push(pc as u32);
    }
    r.dyn_count += 1;
    w.since_ckpt += 1;
    if r.dyn_count >= r.cfg.max_dynamic {
        r.truncated = true;
    }
    if let Some(fuel) = r.cfg.fuel {
        // Instructions discarded by rollbacks are refunded so every replay
        // attempt gets the full budget rather than a half-spent one.
        if r.dyn_count > fuel.saturating_add(r.fuel_refund) {
            // Budget exhausted: the kernel is hung (driver-watchdog kill).
            r.error = Some(ExecError::Hang { steps: r.dyn_count });
            return;
        }
    }
    r.profile.record(&instr);

    // Fault targeting: count eligible instructions by duplication side.
    let mut inject: Option<FaultSpec> = None;
    if let Some(f) = r.cfg.fault {
        if instr.op.is_dup_eligible() {
            let shadow_like = instr.ecc_only || instr.role == Role::Shadow;
            let matches = match f.target {
                FaultTarget::Original => !shadow_like,
                FaultTarget::Shadow => shadow_like,
            };
            if matches {
                if f.fires_at(r.eligible_seen) {
                    inject = Some(f);
                }
                r.eligible_seen += 1;
            }
        }
    }

    let mut txns = 0u8;
    exec_op(r, w, shared, &instr, fi, exec_mask, inject, &mut txns);

    if r.cfg.collect_trace {
        w.trace.push(TraceEntry {
            kidx: pc as u32,
            mask: exec_mask,
            txns,
        });
    }

    // Register-file events observed during this instruction.
    if let Some(pipeline_suspected) = r.pending_due.take() {
        r.detection = Detection::Due {
            at: r.dyn_count,
            pipeline_suspected,
        };
    }

    // Merge fragments that reconverged and drop empty ones.
    w.frags.retain(|f| f.mask != 0);
    w.frags.sort_by_key(|f| f.pc);
    let mut merged: Vec<Fragment> = Vec::with_capacity(w.frags.len());
    for f in w.frags.drain(..) {
        if let Some(last) = merged.last_mut() {
            if last.pc == f.pc {
                last.mask |= f.mask;
                continue;
            }
        }
        merged.push(f);
    }
    w.frags = merged;
}

/// Read a register for one lane, recording decode events.
fn rd(r: &mut Runner<'_>, w: &mut Warp, lane: u32, reg: Reg) -> u32 {
    if reg.is_zero() {
        return 0;
    }
    let (v, e) = w.rf.read(lane, reg.0);
    match e {
        RegFileEvent::Clean => {}
        RegFileEvent::Corrected => r.corrected += 1,
        RegFileEvent::Due { pipeline_suspected } => {
            // Opt-in storage correction: rewrite a single-data-bit syndrome
            // in place and keep running instead of halting. Under swapped
            // codewords this is a *policy gamble* — it restores the shadow's
            // value, which miscorrects shadow-side strikes — so the default
            // leaves it off and campaigns measure its miscorrection rate.
            if r.cfg.recovery.is_some_and(|s| s.storage_correction) {
                if let Some(fixed) = w.rf.correct_in_place(lane, reg.0) {
                    r.rstats.corrections += 1;
                    return fixed;
                }
            }
            r.pending_due.get_or_insert(pipeline_suspected);
        }
    }
    v
}

fn rd64(r: &mut Runner<'_>, w: &mut Warp, lane: u32, reg: Reg) -> u64 {
    if reg.is_zero() {
        return 0;
    }
    let lo = rd(r, w, lane, reg);
    let hi = rd(r, w, lane, reg.pair_hi());
    u64::from(hi) << 32 | u64::from(lo)
}

fn rsrc(r: &mut Runner<'_>, w: &mut Warp, lane: u32, s: Src) -> u32 {
    match s {
        Src::Reg(reg) => rd(r, w, lane, reg),
        Src::Imm(i) => i as u32,
    }
}

/// Write a (possibly faulted) result through the protection-aware paths.
fn write_result(w: &mut Warp, instr: &Instr, lane: u32, d: Reg, value: u32, golden: u32) {
    if d.is_zero() {
        return;
    }
    if instr.ecc_only {
        w.rf.write_ecc_only(lane, d.0, value);
    } else if instr.predicted {
        // Check bits come from the prediction pipeline (fault-free inputs).
        w.rf.write_predicted(lane, d.0, value, golden);
    } else {
        w.rf.write_full(lane, d.0, value);
    }
}

fn write_result64(w: &mut Warp, instr: &Instr, lane: u32, d: Reg, value: u64, golden: u64) {
    write_result(w, instr, lane, d, value as u32, golden as u32);
    write_result(
        w,
        instr,
        lane,
        d.pair_hi(),
        (value >> 32) as u32,
        (golden >> 32) as u32,
    );
}

#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
fn exec_op(
    r: &mut Runner<'_>,
    w: &mut Warp,
    shared: &mut SharedMemory,
    instr: &Instr,
    fi: usize,
    exec_mask: u32,
    inject: Option<FaultSpec>,
    txns: &mut u8,
) {
    let op = instr.op;
    let f32b = f32::from_bits;
    let lanes = (0..32u32).filter(|l| exec_mask & (1 << l) != 0);

    // Arithmetic with a 32-bit result.
    let simple32 = |r: &mut Runner<'_>,
                    w: &mut Warp,
                    d: Reg,
                    f: &dyn Fn(&mut Runner<'_>, &mut Warp, u32) -> u32| {
        for lane in 0..32u32 {
            if exec_mask & (1 << lane) == 0 {
                continue;
            }
            let golden = f(r, w, lane);
            let mut value = golden;
            if let Some(fs) = inject {
                if fs.lane == lane {
                    value = fs.apply32(value);
                    r.faults_applied += 1;
                }
            }
            write_result(w, instr, lane, d, value, golden);
        }
    };

    match op {
        Op::Nop | Op::Bar => {
            if matches!(op, Op::Bar) {
                if w.frags.len() > 1 {
                    // A fault steered some lanes away from this barrier; the
                    // watchdog turns the resulting hang into a crash.
                    if r.detection == Detection::None {
                        r.detection = Detection::Hang { at: r.dyn_count };
                    }
                }
                w.waiting_bar = true;
            }
            w.frags[fi].pc += 1;
        }
        Op::Exit => {
            w.frags[fi].mask &= !exec_mask;
            w.frags[fi].pc += 1;
        }
        Op::Trap => {
            if exec_mask != 0 {
                r.detection = Detection::Trap { at: r.dyn_count };
            }
            w.frags[fi].pc += 1;
        }
        Op::Bra { target } => {
            let not_taken = w.frags[fi].mask & !exec_mask;
            let fall_pc = w.frags[fi].pc + 1;
            if exec_mask != 0 {
                w.frags[fi].mask = exec_mask;
                w.frags[fi].pc = target;
                if not_taken != 0 {
                    w.frags.push(Fragment {
                        pc: fall_pc,
                        mask: not_taken,
                    });
                }
            } else {
                w.frags[fi].pc = fall_pc;
            }
        }
        Op::S2R { d, sr } => {
            for lane in lanes {
                let golden = match sr {
                    SpecialReg::TidX => w.wid * 32 + lane,
                    SpecialReg::NTidX => r.launch.threads_per_cta,
                    SpecialReg::CtaIdX => w.cta,
                    SpecialReg::NCtaIdX => r.launch.ctas,
                    SpecialReg::LaneId => lane,
                    SpecialReg::WarpId => w.wid,
                };
                let mut value = golden;
                if let Some(fs) = inject {
                    if fs.lane == lane {
                        value = fs.apply32(value);
                        r.faults_applied += 1;
                    }
                }
                write_result(w, instr, lane, d, value, golden);
            }
            w.frags[fi].pc += 1;
        }
        Op::Mov { d, a } => {
            simple32(r, w, d, &|r, w, lane| rsrc(r, w, lane, a));
            w.frags[fi].pc += 1;
        }
        Op::IAdd { d, a, b } => {
            trace_ops2(r, w, exec_mask, &op, a, b);
            simple32(r, w, d, &|r, w, lane| {
                rd(r, w, lane, a).wrapping_add(rsrc(r, w, lane, b))
            });
            w.frags[fi].pc += 1;
        }
        Op::ISub { d, a, b } => {
            trace_ops2(r, w, exec_mask, &op, a, b);
            simple32(r, w, d, &|r, w, lane| {
                rd(r, w, lane, a).wrapping_sub(rsrc(r, w, lane, b))
            });
            w.frags[fi].pc += 1;
        }
        Op::IMul { d, a, b } => {
            trace_ops2(r, w, exec_mask, &op, a, b);
            simple32(r, w, d, &|r, w, lane| {
                rd(r, w, lane, a).wrapping_mul(rsrc(r, w, lane, b))
            });
            w.frags[fi].pc += 1;
        }
        Op::IMad { d, a, b, c } => {
            simple32(r, w, d, &|r, w, lane| {
                rd(r, w, lane, a)
                    .wrapping_mul(rd(r, w, lane, b))
                    .wrapping_add(rd(r, w, lane, c))
            });
            w.frags[fi].pc += 1;
        }
        Op::IMadWide { d, a, b, c } => {
            for lane in lanes {
                let av = rd(r, w, lane, a);
                let bv = rd(r, w, lane, b);
                let cv = rd64(r, w, lane, c);
                if r.cfg.trace_operands && instr.role == Role::Original {
                    if let Some(u) = traced_unit(&op) {
                        r.operands.record(u, [u64::from(av), u64::from(bv), cv]);
                    }
                }
                let golden = u64::from(av).wrapping_mul(u64::from(bv)).wrapping_add(cv);
                let mut value = golden;
                if let Some(fs) = inject {
                    if fs.lane == lane {
                        value = fs.apply64(value);
                        r.faults_applied += 1;
                    }
                }
                write_result64(w, instr, lane, d, value, golden);
            }
            w.frags[fi].pc += 1;
        }
        Op::IMin { d, a, b } => {
            simple32(r, w, d, &|r, w, lane| {
                let x = rd(r, w, lane, a) as i32;
                let y = rsrc(r, w, lane, b) as i32;
                x.min(y) as u32
            });
            w.frags[fi].pc += 1;
        }
        Op::IMax { d, a, b } => {
            simple32(r, w, d, &|r, w, lane| {
                let x = rd(r, w, lane, a) as i32;
                let y = rsrc(r, w, lane, b) as i32;
                x.max(y) as u32
            });
            w.frags[fi].pc += 1;
        }
        Op::Shl { d, a, b } => {
            simple32(r, w, d, &|r, w, lane| {
                let sh = rsrc(r, w, lane, b) & 31;
                rd(r, w, lane, a) << sh
            });
            w.frags[fi].pc += 1;
        }
        Op::Shr { d, a, b } => {
            simple32(r, w, d, &|r, w, lane| {
                let sh = rsrc(r, w, lane, b) & 31;
                rd(r, w, lane, a) >> sh
            });
            w.frags[fi].pc += 1;
        }
        Op::And { d, a, b } => {
            simple32(r, w, d, &|r, w, lane| {
                rd(r, w, lane, a) & rsrc(r, w, lane, b)
            });
            w.frags[fi].pc += 1;
        }
        Op::Or { d, a, b } => {
            simple32(r, w, d, &|r, w, lane| {
                rd(r, w, lane, a) | rsrc(r, w, lane, b)
            });
            w.frags[fi].pc += 1;
        }
        Op::Xor { d, a, b } => {
            simple32(r, w, d, &|r, w, lane| {
                rd(r, w, lane, a) ^ rsrc(r, w, lane, b)
            });
            w.frags[fi].pc += 1;
        }
        Op::Not { d, a } => {
            simple32(r, w, d, &|r, w, lane| !rd(r, w, lane, a));
            w.frags[fi].pc += 1;
        }
        Op::FAdd { d, a, b } => {
            trace_ops2(r, w, exec_mask, &op, a, b);
            simple32(r, w, d, &|r, w, lane| {
                (f32b(rd(r, w, lane, a)) + f32b(rsrc(r, w, lane, b))).to_bits()
            });
            w.frags[fi].pc += 1;
        }
        Op::FMul { d, a, b } => {
            trace_ops2(r, w, exec_mask, &op, a, b);
            simple32(r, w, d, &|r, w, lane| {
                (f32b(rd(r, w, lane, a)) * f32b(rsrc(r, w, lane, b))).to_bits()
            });
            w.frags[fi].pc += 1;
        }
        Op::FFma { d, a, b, c } => {
            for lane in 0..32u32 {
                if exec_mask & (1 << lane) == 0 {
                    continue;
                }
                let av = rd(r, w, lane, a);
                let bv = rd(r, w, lane, b);
                let cv = rd(r, w, lane, c);
                if r.cfg.trace_operands && instr.role == Role::Original {
                    if let Some(u) = traced_unit(&op) {
                        r.operands
                            .record(u, [u64::from(av), u64::from(bv), u64::from(cv)]);
                    }
                }
                let golden = f32b(av).mul_add(f32b(bv), f32b(cv)).to_bits();
                let mut value = golden;
                if let Some(fs) = inject {
                    if fs.lane == lane {
                        value = fs.apply32(value);
                        r.faults_applied += 1;
                    }
                }
                write_result(w, instr, lane, d, value, golden);
            }
            w.frags[fi].pc += 1;
        }
        Op::FMin { d, a, b } => {
            simple32(r, w, d, &|r, w, lane| {
                f32b(rd(r, w, lane, a))
                    .min(f32b(rsrc(r, w, lane, b)))
                    .to_bits()
            });
            w.frags[fi].pc += 1;
        }
        Op::FMax { d, a, b } => {
            simple32(r, w, d, &|r, w, lane| {
                f32b(rd(r, w, lane, a))
                    .max(f32b(rsrc(r, w, lane, b)))
                    .to_bits()
            });
            w.frags[fi].pc += 1;
        }
        Op::MufuRcp { d, a } => {
            simple32(r, w, d, &|r, w, lane| {
                (1.0 / f32b(rd(r, w, lane, a))).to_bits()
            });
            w.frags[fi].pc += 1;
        }
        Op::MufuSqrt { d, a } => {
            simple32(r, w, d, &|r, w, lane| {
                f32b(rd(r, w, lane, a)).sqrt().to_bits()
            });
            w.frags[fi].pc += 1;
        }
        Op::MufuEx2 { d, a } => {
            simple32(r, w, d, &|r, w, lane| {
                f32b(rd(r, w, lane, a)).exp2().to_bits()
            });
            w.frags[fi].pc += 1;
        }
        Op::MufuLg2 { d, a } => {
            simple32(r, w, d, &|r, w, lane| {
                f32b(rd(r, w, lane, a)).log2().to_bits()
            });
            w.frags[fi].pc += 1;
        }
        Op::I2F { d, a } => {
            simple32(r, w, d, &|r, w, lane| {
                (rd(r, w, lane, a) as i32 as f32).to_bits()
            });
            w.frags[fi].pc += 1;
        }
        Op::F2I { d, a } => {
            simple32(r, w, d, &|r, w, lane| f32b(rd(r, w, lane, a)) as i32 as u32);
            w.frags[fi].pc += 1;
        }
        Op::DAdd { d, a, b } | Op::DMul { d, a, b } => {
            for lane in 0..32u32 {
                if exec_mask & (1 << lane) == 0 {
                    continue;
                }
                let av = rd64(r, w, lane, a);
                let bv = rd64(r, w, lane, b);
                if r.cfg.trace_operands && instr.role == Role::Original {
                    if let Some(u) = traced_unit(&op) {
                        r.operands.record(u, [av, bv, 0]);
                    }
                }
                let fa = f64::from_bits(av);
                let fb = f64::from_bits(bv);
                let golden = match op {
                    Op::DAdd { .. } => (fa + fb).to_bits(),
                    _ => (fa * fb).to_bits(),
                };
                let mut value = golden;
                if let Some(fs) = inject {
                    if fs.lane == lane {
                        value = fs.apply64(value);
                        r.faults_applied += 1;
                    }
                }
                write_result64(w, instr, lane, d, value, golden);
            }
            w.frags[fi].pc += 1;
        }
        Op::DFma { d, a, b, c } => {
            for lane in 0..32u32 {
                if exec_mask & (1 << lane) == 0 {
                    continue;
                }
                let av = rd64(r, w, lane, a);
                let bv = rd64(r, w, lane, b);
                let cv = rd64(r, w, lane, c);
                if r.cfg.trace_operands && instr.role == Role::Original {
                    if let Some(u) = traced_unit(&op) {
                        r.operands.record(u, [av, bv, cv]);
                    }
                }
                let golden = f64::from_bits(av)
                    .mul_add(f64::from_bits(bv), f64::from_bits(cv))
                    .to_bits();
                let mut value = golden;
                if let Some(fs) = inject {
                    if fs.lane == lane {
                        value = fs.apply64(value);
                        r.faults_applied += 1;
                    }
                }
                write_result64(w, instr, lane, d, value, golden);
            }
            w.frags[fi].pc += 1;
        }
        Op::SetP { p, cmp, ty, a, b } => {
            for lane in 0..32u32 {
                if exec_mask & (1 << lane) == 0 {
                    continue;
                }
                let x = rd(r, w, lane, a);
                let y = rsrc(r, w, lane, b);
                let res = compare(cmp, ty, x, y);
                if p.is_true() {
                    continue; // PT is immutable
                }
                if res {
                    w.preds[lane as usize] |= 1 << p.0;
                } else {
                    w.preds[lane as usize] &= !(1 << p.0);
                }
            }
            w.frags[fi].pc += 1;
        }
        Op::Sel { d, p, a, b } => {
            simple32(r, w, d, &|r, w, lane| {
                let bit = p.is_true() || w.preds[lane as usize] & (1 << p.0) != 0;
                if bit {
                    rd(r, w, lane, a)
                } else {
                    rsrc(r, w, lane, b)
                }
            });
            w.frags[fi].pc += 1;
        }
        Op::Ld {
            d,
            space,
            addr,
            offset,
            width,
        } => {
            let mut segments: Vec<u32> = Vec::new();
            for lane in 0..32u32 {
                if exec_mask & (1 << lane) == 0 {
                    continue;
                }
                let base = rd(r, w, lane, addr).wrapping_add(offset as u32);
                if space == MemSpace::Global {
                    let seg = base >> 7;
                    if !segments.contains(&seg) {
                        segments.push(seg);
                    }
                }
                let lo = match space {
                    MemSpace::Global => r.mem.try_read(base),
                    MemSpace::Shared => shared.try_read(base),
                };
                let Some(lo) = lo else {
                    r.mem_fault(base);
                    break;
                };
                write_result(w, instr, lane, d, lo, lo);
                if width == MemWidth::W64 {
                    let hi = match space {
                        MemSpace::Global => r.mem.try_read(base.wrapping_add(4)),
                        MemSpace::Shared => shared.try_read(base.wrapping_add(4)),
                    };
                    let Some(hi) = hi else {
                        r.mem_fault(base.wrapping_add(4));
                        break;
                    };
                    write_result(w, instr, lane, d.pair_hi(), hi, hi);
                }
            }
            *txns = segments.len().min(255) as u8;
            if space == MemSpace::Shared && exec_mask != 0 {
                *txns = 1;
            }
            w.frags[fi].pc += 1;
        }
        Op::St {
            space,
            addr,
            offset,
            v,
            width,
        } => {
            if exec_mask != 0 {
                // Stored values escape the warp-private snapshot: rollback
                // could re-execute (or fail to undo) them, so replay is
                // barred until the next checkpoint.
                w.dirty = true;
            }
            let mut segments: Vec<u32> = Vec::new();
            for lane in 0..32u32 {
                if exec_mask & (1 << lane) == 0 {
                    continue;
                }
                let base = rd(r, w, lane, addr).wrapping_add(offset as u32);
                if space == MemSpace::Global {
                    let seg = base >> 7;
                    if !segments.contains(&seg) {
                        segments.push(seg);
                    }
                }
                let lo = rd(r, w, lane, v);
                let ok = match space {
                    MemSpace::Global => r.mem.try_write(base, lo),
                    MemSpace::Shared => shared.try_write(base, lo),
                };
                if !ok {
                    r.mem_fault(base);
                    break;
                }
                if width == MemWidth::W64 {
                    let hi = rd(r, w, lane, v.pair_hi());
                    let ok = match space {
                        MemSpace::Global => r.mem.try_write(base.wrapping_add(4), hi),
                        MemSpace::Shared => shared.try_write(base.wrapping_add(4), hi),
                    };
                    if !ok {
                        r.mem_fault(base.wrapping_add(4));
                        break;
                    }
                }
            }
            *txns = segments.len().min(255) as u8;
            if space == MemSpace::Shared && exec_mask != 0 {
                *txns = 1;
            }
            w.frags[fi].pc += 1;
        }
        Op::AtomAdd { addr, offset, v } => {
            if exec_mask != 0 {
                w.dirty = true;
            }
            let mut count = 0u32;
            for lane in 0..32u32 {
                if exec_mask & (1 << lane) == 0 {
                    continue;
                }
                let base = rd(r, w, lane, addr).wrapping_add(offset as u32);
                let val = rd(r, w, lane, v);
                if r.mem.try_atomic_add(base, val).is_none() {
                    r.mem_fault(base);
                    break;
                }
                count += 1;
            }
            *txns = count.min(255) as u8;
            w.frags[fi].pc += 1;
        }
        Op::Shfl { d, a, mode } => {
            // Gather the source operand across all warp lanes first.
            let mut vals = [0u32; 32];
            for lane in 0..32u32 {
                vals[lane as usize] = if a.is_zero() { 0 } else { w.rf.peek(lane, a.0) };
            }
            for lane in 0..32u32 {
                if exec_mask & (1 << lane) == 0 {
                    continue;
                }
                let src_lane = match mode {
                    ShflMode::Idx(s) => rsrc(r, w, lane, s) & 31,
                    ShflMode::Bfly(m) => lane ^ (m & 31),
                    ShflMode::Down(dl) => (lane + dl).min(31),
                    ShflMode::Up(dl) => lane.saturating_sub(dl),
                };
                let golden = vals[src_lane as usize];
                write_result(w, instr, lane, d, golden, golden);
            }
            w.frags[fi].pc += 1;
        }
    }
}

fn trace_ops2(r: &mut Runner<'_>, w: &mut Warp, exec_mask: u32, op: &Op, a: Reg, b: Src) {
    if !r.cfg.trace_operands || exec_mask == 0 {
        return;
    }
    if let Some(unit) = traced_unit(op) {
        let lane = exec_mask.trailing_zeros();
        let av = if a.is_zero() { 0 } else { w.rf.peek(lane, a.0) };
        let bv = match b {
            Src::Reg(reg) if !reg.is_zero() => w.rf.peek(lane, reg.0),
            Src::Reg(_) => 0,
            Src::Imm(i) => i as u32,
        };
        r.operands.record(unit, [u64::from(av), u64::from(bv), 0]);
    }
}

pub(crate) fn compare(cmp: CmpOp, ty: CmpTy, x: u32, y: u32) -> bool {
    match ty {
        CmpTy::I32 => {
            let (a, b) = (x as i32, y as i32);
            apply_cmp(cmp, a.partial_cmp(&b))
        }
        CmpTy::U32 => apply_cmp(cmp, x.partial_cmp(&y)),
        CmpTy::F32 => {
            let (a, b) = (f32::from_bits(x), f32::from_bits(y));
            apply_cmp(cmp, a.partial_cmp(&b))
        }
    }
}

fn apply_cmp(cmp: CmpOp, ord: Option<std::cmp::Ordering>) -> bool {
    use std::cmp::Ordering::{Equal, Greater, Less};
    match (cmp, ord) {
        (_, None) => false,
        (CmpOp::Eq, Some(Equal)) => true,
        (CmpOp::Ne, Some(Less | Greater)) => true,
        (CmpOp::Lt, Some(Less)) => true,
        (CmpOp::Le, Some(Less | Equal)) => true,
        (CmpOp::Gt, Some(Greater)) => true,
        (CmpOp::Ge, Some(Greater | Equal)) => true,
        _ => false,
    }
}
