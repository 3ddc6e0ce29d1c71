//! Epoch snapshots and the fast-forward campaign engine.
//!
//! An architecture-level injection campaign runs the *same* kernel once per
//! trial, differing only in where a single fault strikes. All work before
//! the strike is identical across trials, and most post-strike suffixes are
//! identical to the golden run (the fault was masked). The fast-forward
//! engine exploits both:
//!
//! * **Epoch ladder** — during the campaign's golden run it captures full
//!   architectural snapshots (warp register files with their ECC state,
//!   divergence fragments, predicates, barrier flags, shared and global
//!   memory, the per-side eligible-op counters, and the round scheduler's
//!   position) at the first warp boundary past every N dynamic
//!   instructions. A trial resumes from the latest snapshot whose
//!   eligible-op counter has not yet passed the trial's injection site,
//!   picks up the scheduler's round where the snapshot left it, and
//!   executes only the suffix.
//! * **Golden-convergence early-exit** — once the strike has been delivered,
//!   if at a warp boundary the scheduler and every warp stand where they
//!   stood at some rung (same next warp and round progress, same fragments
//!   and barrier flags, at any dynamic-instruction count) and the trial's
//!   state equals that rung's in everything the rest of the run can still
//!   read (live registers and predicate bits, all memory) with no detection
//!   pending, the remaining execution is a deterministic replay of the
//!   golden suffix from that rung: no further fault can fire (the single
//!   strike is spent) and the executor state machine is a pure function of
//!   that state. The trial is therefore classified Masked without running to
//!   completion, provided its own finishing count stays within fuel and the
//!   dynamic cap.
//! * **Warp-independent barrier strikes** — when no word one warp writes is
//!   touched by another, a barrier strike only reorders warps and is
//!   classified Masked without executing anything.
//! * **Warp-confined trials** — in such a cell, once a transient or a
//!   non-barrier control strike changes the state of one warp while another
//!   is still live, only the struck warp runs on. Every memory access it
//!   makes is checked against the golden per-word owner log, and dynamic
//!   count bounds decide whether its halt or its output is the reference
//!   outcome; otherwise the trial re-runs on the normal schedule.
//!
//! See DESIGN §9 for the four rules, their soundness arguments and the
//! fuel/truncation guards.
//!
//! Trials interpret the predecoded micro-op table from [`crate::predecode`]
//! instead of re-matching the `Op` enum per step, and compute each
//! warp-instruction as one 32-lane column: every source register is read
//! once as a column ([`WarpRegFile::read_col`]), the operation is matched
//! once and computed lane-wise, a transient or stuck-at strike lands
//! afterwards on its one lane if that lane is active, and the result goes
//! through one column write ([`WarpRegFile::write_col`]). Decode DUEs keep
//! the reference executor's order — lowest lane first, then operand read
//! order — and an instruction with an empty exec mask writes nothing
//! (DESIGN §9, column execution). Campaigns run the configuration
//! injection needs — a single CTA (`cta_limit = 1`), no trace or operand
//! capture, no in-executor recovery, fueled. The same exact-step core also
//! runs the timing sweep's functional pass ([`traced_pass`]): fault-free,
//! over several CTAs one after another, recording the reference
//! executor's per-warp trace. Both are differentially tested against the
//! reference executor ([`crate::exec`]): campaigns outcome for outcome,
//! the pass trace for trace.
//!
//! Under [`ExecTier::Tier2`] the engine executes the kernel through a
//! threaded-code buffer of compiled dispatch closures ([`crate::tier2`])
//! instead of the central micro-op match; the scheduler, snapshot capture
//! and convergence early-exit are shared between the tiers, and the tier-1
//! interpreter stays as tier 2's exact-step fallback. Trials always resume
//! copy-on-write, and the reference executor is the one oracle they are
//! checked against.

use std::sync::Arc;

use crate::exec::{
    compare, CancelToken, Detection, ExecConfig, ExecError, Launch, TraceEntry, WarpTrace,
};
use crate::fault::{ControlTarget, FaultClass, FaultSpec, FaultTarget};
use crate::memory::{CowMemory, CowShared, GlobalMemory};
use crate::predecode::{
    Alu1Kind, Alu2Kind, Guard, MicroOp, PShflMode, PSrc, PredecodedKernel, UOp, WriteMode,
};
use crate::regfile::{CowRegFile, DueLanes, Lanes, Protection, WarpRegFile};
use crate::tier2::{CompiledKernel, ExecTier};
use swapcodes_isa::{Kernel, Liveness, MemSpace, SpecialReg};

/// One PC-reconvergence fragment of a warp: a program counter and the lanes
/// currently at it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fragment {
    /// Static instruction index the fragment executes next.
    pub pc: usize,
    /// Lanes at this PC.
    pub mask: u32,
}

/// Architectural snapshot of one warp, sufficient to resume it: PC
/// fragments, predicate registers, and the full (ECC-encoded) register
/// file. Shared by the recovery engine's warp checkpoints
/// ([`crate::exec`]) and the campaign epoch ladder.
#[derive(Debug, Clone)]
pub struct WarpSnapshot {
    /// Divergence fragments.
    pub frags: Vec<Fragment>,
    /// Predicate registers of all 32 lanes.
    pub preds: [u8; 32],
    /// The full register file, including stored check bits and the decoder
    /// arming flag.
    pub rf: WarpRegFile,
}

/// One warp of an epoch snapshot: resume state plus the golden run's
/// touched-register bitmap for the interval *ending* at this rung (the
/// per-epoch register delta the dirty-only convergence comparison
/// accumulates, DESIGN §14).
#[derive(Debug, Clone)]
struct EpochWarp {
    frags: Vec<Fragment>,
    preds: [u8; 32],
    /// Shared base file: trials wrap it in a [`CowRegFile`] and only clone
    /// on first write. Captured with a drained touched bitmap, so a resumed
    /// trial's dirty tracking starts empty.
    rf: Arc<WarpRegFile>,
    /// Registers the golden run wrote in `(previous rung, this rung]`.
    delta_regs: Vec<u64>,
    /// What the warp can still read from this rung on.
    live: LiveMask,
}

/// The registers and predicate bits a warp can still read from a rung on
/// (rule 1 of DESIGN §9): the union of the static live-in sets at its
/// fragment PCs plus every `SHFL` source register, compared on all 32
/// lanes. A finished warp reads nothing.
#[derive(Debug, Clone, Copy, Default)]
struct LiveMask {
    regs: [u64; 4],
    preds: u8,
}

impl LiveMask {
    /// The union of `live`'s live-in sets at `frags`' PCs, plus `shfl`.
    ///
    /// A lane only reads its own registers through instructions its own
    /// fragment issues, so the live-in set at its PC covers it; an `SHFL`
    /// also reads the source register of lanes outside the issuing fragment
    /// (other fragments, exited lanes), whose values no kill on the issuing
    /// fragment's path overwrites — hence the kernel's `SHFL` sources.
    fn at(frags: &[Fragment], live: &Liveness, shfl: [u64; 4]) -> Self {
        if frags.is_empty() {
            return Self::default();
        }
        let mut m = Self {
            regs: shfl,
            preds: 0,
        };
        // A PC past the end reads nothing: the fragment retires on issue.
        for f in frags.iter().filter(|f| f.pc < live.len()) {
            let s = live.live_in(f.pc);
            for (d, x) in m.regs.iter_mut().zip(s.reg_bits()) {
                *d |= x;
            }
            m.preds |= s.pred_bits();
        }
        m
    }
}

/// The source registers of every `SHFL` in `pk` (rule 1's cross-lane reads).
fn shfl_sources(pk: &PredecodedKernel) -> [u64; 4] {
    let mut regs = [0u64; 4];
    for pc in 0..pk.len() {
        if let UOp::Shfl { a, .. } = pk.op_ref(pc).uop {
            if a != RZ8 {
                regs[usize::from(a >> 6)] |= 1 << (a & 63);
            }
        }
    }
    regs
}

/// Where the round scheduler stands at a warp boundary: the warp it visits
/// next, and whether a warp has issued (or a barrier release happened)
/// earlier in the current round — the flag the round-end deadlock check
/// reads. A round top is the default, `{ next: 0, progressed: false }`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SchedPos {
    next: usize,
    progressed: bool,
}

/// A hash of the scheduler position and every warp's fragments and barrier
/// flag: the cheap pre-filter for rule 2's position match (equal positions
/// give equal keys; a key collision only costs the exact comparison that
/// follows).
fn position_key(sched: SchedPos, warps: &[FastWarp]) -> u64 {
    let mut h = 0u64;
    let mut mix = |x: u64| h = (h.rotate_left(5) ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    mix((sched.next as u64) << 1 | u64::from(sched.progressed));
    for w in warps {
        mix(u64::from(w.waiting_bar) | (w.frags.len() as u64) << 1);
        for f in &w.frags {
            mix((f.pc as u64) << 32 | u64::from(f.mask));
        }
    }
    h
}

/// One rung of the epoch ladder: the complete architectural state of the
/// golden run at a warp boundary of the round scheduler, the scheduler's
/// position included, so a resumed trial finishes the partial round exactly
/// as golden did. Bulk state (global memory, shared memory, register files)
/// is held in `Arc`s so resuming a trial shares it copy-on-write instead of
/// deep cloning — consecutive rungs share the file of every warp that wrote
/// no register in between — and each rung records the golden run's dirty
/// set for the interval ending at it.
#[derive(Debug, Clone)]
pub struct EpochSnapshot {
    /// Dynamic warp-instructions executed when the snapshot was taken.
    pub dyn_count: u64,
    /// Original-side eligible instructions executed so far.
    pub eligible_orig: u64,
    /// Shadow-side eligible instructions executed so far.
    pub eligible_shadow: u64,
    sched: SchedPos,
    warps: Vec<EpochWarp>,
    bars: Vec<bool>,
    /// [`position_key`] of `sched`, `warps`' fragments and `bars`.
    pos_key: u64,
    shared: Arc<Vec<u32>>,
    /// Whether the golden run wrote shared memory in `(previous, this]`.
    delta_shared: bool,
    mem: Arc<Vec<u32>>,
    /// Global-memory pages the golden run wrote in `(previous, this]`.
    delta_pages: Vec<u64>,
}

impl EpochSnapshot {
    /// The eligible-op counter for one fault side at the snapshot point.
    #[must_use]
    pub fn eligible_for(&self, target: FaultTarget) -> u64 {
        match target {
            FaultTarget::Original => self.eligible_orig,
            FaultTarget::Shadow => self.eligible_shadow,
        }
    }
}

/// The golden run's snapshot ladder plus the run-level facts the
/// convergence early-exit needs to be sound.
#[derive(Debug, Clone)]
pub struct EpochLadder {
    /// Requested capture spacing in dynamic instructions.
    pub interval: u64,
    /// Total dynamic instructions of the golden run.
    pub golden_dynamic: u64,
    /// Whether the golden run hit the `max_dynamic` cap (early-exit is
    /// disabled in that case: the golden suffix is not a completed run).
    pub golden_truncated: bool,
    /// The golden run's per-word access log, kept only when no global or
    /// shared word one warp wrote was read or written by another (rules 3
    /// and 4 of DESIGN §9).
    access: Option<AccessLog>,
    snapshots: Vec<EpochSnapshot>,
}

impl EpochLadder {
    /// Does a trial whose last instruction would carry dynamic count
    /// `finish` complete a copy of the golden suffix — neither exhausting
    /// `fuel` nor reaching the `max_dynamic` cap on the way? The guard every
    /// early exit needs: otherwise the from-scratch trial would have hung or
    /// truncated, not Masked.
    fn finishes_within(&self, finish: u64, fuel: Option<u64>, max_dynamic: u64) -> bool {
        !self.golden_truncated && fuel.is_none_or(|f| finish <= f) && finish < max_dynamic
    }
}

/// Facts about the golden capture run, for validation against the
/// reference executor's golden run.
#[derive(Debug)]
pub struct GoldenCapture {
    /// Detection state of the golden run (must be `None` for a usable
    /// campaign).
    pub detection: Detection,
    /// Dynamic warp-instructions executed.
    pub dynamic_instructions: u64,
    /// Whether `max_dynamic` truncated the run.
    pub truncated: bool,
    /// Original-side eligible instructions executed.
    pub eligible_orig: u64,
    /// Shadow-side eligible instructions executed.
    pub eligible_shadow: u64,
    /// Final global memory (for output validation against the reference
    /// golden run).
    pub mem: GlobalMemory,
}

/// Result of one fast-forwarded trial.
#[derive(Debug)]
pub struct FastTrial {
    /// Detection state when the trial halted (or ran to completion).
    pub detection: Detection,
    /// Structured host error, if any (fuel exhaustion, scheduler deadlock).
    pub error: Option<ExecError>,
    /// The trial re-converged to a golden epoch state after the strike, or
    /// was a barrier strike in a warp-independent kernel: the outcome is
    /// provably Masked and `mem` is *not* the final memory (the suffix was
    /// pruned).
    pub converged_early: bool,
    /// The warp a confined trial ran alone after the strike (rule 4):
    /// `detection` and `error` are the reference's (detection timestamps
    /// excepted), and `mem` is final only outside the words other warps
    /// write — compare it with [`CampaignEngine::output_matches`].
    pub confined: Option<u32>,
    /// A confined run could not decide the outcome, so the trial re-ran on
    /// the normal schedule; `executed` counts both runs.
    pub rerun: bool,
    /// Global memory at the point the trial stopped (a CoW view over the
    /// resume snapshot; use [`CowMemory::slices`] for O(output) region
    /// reads or [`CowMemory::words`]/[`CowMemory::to_global`] to flatten).
    pub mem: CowMemory,
    /// Dynamic-instruction count of the snapshot the trial resumed from.
    pub resumed_from: u64,
    /// Dynamic instructions actually executed by this trial.
    pub executed: u64,
    /// Bytes of snapshot state this trial materialized: its global-memory
    /// pages, shared memory if written, and each written register file at
    /// its stored size ([`WarpRegFile::stored_bytes`], 196 bytes per
    /// register).
    pub bytes_cloned: u64,
    /// Global-memory pages materialized by writes.
    pub cow_pages_cloned: u64,
    /// Total global-memory pages in the snapshot (the CoW denominator).
    pub cow_pages_total: u64,
}

/// The fast-forward campaign engine: a predecoded kernel plus the golden
/// epoch ladder, built once per campaign in `ArchCampaign::prepare`.
#[derive(Debug)]
pub struct CampaignEngine {
    pk: PredecodedKernel,
    launch: Launch,
    ladder: EpochLadder,
    max_dynamic: u64,
    tier: ExecTier,
    compiled: Option<CompiledKernel>,
    page_words: usize,
}

impl CampaignEngine {
    /// Run the fault-free golden execution of `kernel` over the first CTA of
    /// `launch`, capturing an epoch snapshot at the first warp boundary past
    /// every `interval` dynamic instructions (including epoch 0 at the
    /// initial state, so trials never rebuild workload memory). Rungs are
    /// therefore less than `interval + 64` instructions apart. Honors
    /// `config.tier`, `config.max_dynamic` and `config.cow_page_words`: under
    /// [`ExecTier::Tier2`] the kernel is compiled into the threaded-code
    /// closure buffer once, and both the golden capture run and every trial
    /// execute through it.
    ///
    /// # Errors
    ///
    /// Propagates the golden run's structured failure (out-of-bounds access
    /// or scheduler deadlock), exactly like the reference executor's golden
    /// run would.
    pub fn capture_config(
        kernel: &Kernel,
        launch: Launch,
        protection: Protection,
        initial_mem: &GlobalMemory,
        interval: u64,
        config: &ExecConfig,
    ) -> Result<(Self, GoldenCapture), ExecError> {
        let pk = PredecodedKernel::new(kernel);
        let max_dynamic = config.max_dynamic;
        let page_words = config.cow_page_words.max(1).next_power_of_two();
        let compiled = match config.tier {
            ExecTier::Tier1 => None,
            ExecTier::Tier2 => Some(CompiledKernel::compile(&pk)),
        };
        let mut ctx = FastCtx {
            pk: &pk,
            launch,
            cta: 0,
            fault: None,
            fuel: None,
            max_dynamic,
            mem: CowMemory::new(Arc::new(initial_mem.words().to_vec()), page_words),
            shared: CowShared::new_zeroed(launch.shared_words as usize),
            dyn_count: 0,
            eligible_orig: 0,
            eligible_shadow: 0,
            detection: Detection::None,
            pending_due: None,
            truncated: false,
            error: None,
            faults_applied: 0,
            control_delivered: false,
            cancel: None,
            access: Access::Log(AccessLog::new(
                initial_mem.words().len(),
                launch.shared_words as usize,
            )),
            trace: None,
        };
        let mut warps = new_warps(&pk, launch, protection);
        if compiled.is_some() {
            // Tier 2 defers check-bit encoding on full writes; the hooks
            // flush before every observation point (see `WarpRegFile`).
            for w in &mut warps {
                w.rf.set_deferred(true);
            }
        }
        let mut snapshots = Vec::new();
        let live = Liveness::compute(kernel);
        let mut hook = Hook::Capture {
            interval: interval.max(1),
            next: 0,
            out: &mut snapshots,
            live: &live,
            shfl: shfl_sources(&pk),
        };
        run_rounds(
            &mut ctx,
            &mut warps,
            &mut hook,
            compiled.as_ref(),
            SchedPos::default(),
        );
        if let Some(e) = ctx.error {
            return Err(e);
        }
        let access = match ctx.access {
            Access::Log(log) if !log.conflict => Some(log),
            _ => None,
        };
        let capture = GoldenCapture {
            detection: ctx.detection,
            dynamic_instructions: ctx.dyn_count,
            truncated: ctx.truncated,
            eligible_orig: ctx.eligible_orig,
            eligible_shadow: ctx.eligible_shadow,
            mem: ctx.mem.to_global(),
        };
        let ladder = EpochLadder {
            interval: interval.max(1),
            golden_dynamic: capture.dynamic_instructions,
            golden_truncated: capture.truncated,
            access,
            snapshots,
        };
        Ok((
            Self {
                pk,
                launch,
                ladder,
                max_dynamic,
                tier: config.tier,
                compiled,
                page_words,
            },
            capture,
        ))
    }

    /// Copy-on-write page size (in 32-bit words) trials resume with.
    #[must_use]
    pub fn page_words(&self) -> usize {
        self.page_words
    }

    /// Number of epoch snapshots in the ladder.
    #[must_use]
    pub fn snapshot_count(&self) -> usize {
        self.ladder.snapshots.len()
    }

    /// The epoch ladder's rungs, in capture order.
    #[must_use]
    pub fn snapshots(&self) -> &[EpochSnapshot] {
        &self.ladder.snapshots
    }

    /// The execution tier this engine runs trials on.
    #[must_use]
    pub fn tier(&self) -> ExecTier {
        self.tier
    }

    /// Number of adjacent micro-op pairs the tier-2 compiler fused into
    /// superinstruction closures (0 on tier 1).
    #[must_use]
    pub fn fused_pairs(&self) -> usize {
        self.compiled
            .as_ref()
            .map_or(0, CompiledKernel::fused_pairs)
    }

    /// Requested snapshot spacing in dynamic instructions.
    #[must_use]
    pub fn interval(&self) -> u64 {
        self.ladder.interval
    }

    /// Total dynamic instructions of the golden run.
    #[must_use]
    pub fn golden_dynamic(&self) -> u64 {
        self.ladder.golden_dynamic
    }

    /// Whether no global or shared word one warp of the golden run wrote
    /// was read or written by another warp — the condition under which a
    /// barrier strike only reorders warps and is Masked without executing
    /// (rule 3 of DESIGN §9), and under which other strikes confine their
    /// trial to the struck warp (rule 4).
    #[must_use]
    pub fn warp_independent(&self) -> bool {
        self.ladder.access.is_some()
    }

    /// Whether trial `t`'s output region — `golden.len()` words from byte
    /// address `addr` — equals `golden`, compared page slice by page slice
    /// on the trial's copy-on-write view without copying it. For a confined
    /// trial (rule 4 of DESIGN §9), a word another warp writes in golden
    /// counts as equal: that warp stopped at the strike, and in the
    /// reference it writes exactly its golden values. Only a slice that
    /// differs walks its words for that exception.
    ///
    /// # Panics
    ///
    /// Panics on an unaligned or out-of-bounds region.
    #[must_use]
    pub fn output_matches(&self, t: &FastTrial, addr: u32, golden: &[u32]) -> bool {
        assert_eq!(addr % 4, 0, "unaligned output region at {addr:#x}");
        let confined = t.confined.zip(self.ladder.access.as_ref());
        let (mut rest, mut a) = (golden, addr);
        t.mem.slices((addr / 4) as usize, golden.len()).all(|out| {
            let (g, tail) = rest.split_at(out.len());
            let words = (a..).step_by(4);
            (rest, a) = (tail, a + 4 * out.len() as u32);
            out == g
                || confined.is_some_and(|(wid, log)| {
                    out.iter()
                        .zip(g)
                        .zip(words)
                        .all(|((o, g), w)| o == g || log.foreign_write(w, wid))
                })
        })
    }

    /// Index of the ladder rung `fault`'s trial resumes from: the latest
    /// rung whose captured golden prefix is provably fault-free. For
    /// datapath classes that is "no matching-side eligible access has
    /// reached the strike / activation index yet"; for control strikes it is
    /// "the delivery instruction has not issued yet".
    fn resume_rung(&self, fault: &FaultSpec) -> usize {
        let mut si = 0;
        for (i, s) in self.ladder.snapshots.iter().enumerate() {
            let before_strike = if fault.is_control() {
                s.dyn_count <= fault.eligible_index
            } else {
                s.eligible_for(fault.target) <= fault.eligible_index
            };
            if before_strike {
                si = i;
            } else {
                break;
            }
        }
        si
    }

    /// Run one fueled trial: resume from the nearest epoch snapshot at or
    /// before the injection site, sharing its state copy-on-write, and
    /// prune the suffix when post-strike state re-converges to golden
    /// (rules 1 and 2 of DESIGN §9). In a warp-independent kernel a barrier
    /// strike is classified without executing (rule 3), and other
    /// non-stuck-at strikes run confined to the struck warp (rule 4).
    ///
    /// `cancel`, when given, is polled at every issue boundary. A cancelled
    /// trial returns with [`ExecError::Cancelled`]; its partial state must
    /// be discarded, never tallied — the trial re-runs in full on resume,
    /// preserving byte-identity.
    ///
    /// # Panics
    ///
    /// Panics if the ladder is empty (capture always records epoch 0, so
    /// this indicates engine misuse).
    #[must_use]
    pub fn run_trial(
        &self,
        fault: FaultSpec,
        fuel: u64,
        cancel: Option<&CancelToken>,
    ) -> FastTrial {
        let si = self.resume_rung(&fault);
        let snap = &self.ladder.snapshots[si];
        let independent = self.ladder.access.is_some();
        if independent
            && fault.control_target() == Some(ControlTarget::Barrier)
            && self
                .ladder
                .finishes_within(self.ladder.golden_dynamic, Some(fuel), self.max_dynamic)
        {
            // Rule 3: no warp reads a word another warp writes, so the
            // strike only changes which warp waits when; every warp computes
            // its golden values and the run ends on the golden count.
            let mem = CowMemory::new(Arc::clone(&snap.mem), self.page_words);
            return FastTrial {
                detection: Detection::None,
                error: None,
                converged_early: true,
                confined: None,
                rerun: false,
                resumed_from: snap.dyn_count,
                executed: 0,
                bytes_cloned: 0,
                cow_pages_cloned: 0,
                cow_pages_total: mem.page_count() as u64,
                mem,
            };
        }
        let confine = independent && !self.ladder.golden_truncated && confinable(&fault);
        self.run_from(si, fault, fuel, cancel, confine)
            .unwrap_or_else(|executed| {
                let mut t = self
                    .run_from(si, fault, fuel, cancel, false)
                    .expect("a trial on the normal schedule always decides");
                t.executed += executed;
                t.rerun = true;
                t
            })
    }

    /// Execute `fault`'s trial from rung `si` on the normal schedule, or,
    /// with `confine` set, confined to the struck warp once the strike lands
    /// (rule 4). `Err` carries the instructions a confined run executed
    /// when it could not decide the outcome.
    fn run_from(
        &self,
        si: usize,
        fault: FaultSpec,
        fuel: u64,
        cancel: Option<&CancelToken>,
        confine: bool,
    ) -> Result<FastTrial, u64> {
        let snap = &self.ladder.snapshots[si];
        let mut ctx = FastCtx {
            pk: &self.pk,
            launch: self.launch,
            cta: 0,
            fault: Some(fault),
            fuel: Some(fuel),
            max_dynamic: self.max_dynamic,
            mem: CowMemory::new(Arc::clone(&snap.mem), self.page_words),
            shared: CowShared::resume(Arc::clone(&snap.shared)),
            dyn_count: snap.dyn_count,
            eligible_orig: snap.eligible_orig,
            eligible_shadow: snap.eligible_shadow,
            detection: Detection::None,
            pending_due: None,
            truncated: false,
            error: None,
            faults_applied: 0,
            control_delivered: false,
            cancel: cancel.cloned(),
            access: Access::Off,
            trace: None,
        };
        let defer = self.compiled.is_some();
        let mut warps: Vec<FastWarp> = snap
            .warps
            .iter()
            .zip(&snap.bars)
            .enumerate()
            .map(|(wid, (ws, &bar))| FastWarp {
                wid: wid as u32,
                frags: ws.frags.clone(),
                preds: ws.preds,
                rf: CowRegFile::shared(Arc::clone(&ws.rf), defer),
                waiting_bar: bar,
            })
            .collect();
        let mut converged = false;
        let mut hook = Hook::Converge {
            ladder: &self.ladder,
            resume: si,
            fault,
            acc: DeltaAcc::sized_like(snap, si),
            confine,
            converged: &mut converged,
        };
        let struck = run_rounds(
            &mut ctx,
            &mut warps,
            &mut hook,
            self.compiled.as_ref(),
            snap.sched,
        );
        let confined = match (struck, &self.ladder.access) {
            (Some(wi), Some(log)) => {
                let strike_at = ctx.dyn_count;
                ctx.access = Access::Check { log, broken: false };
                run_confined(&mut ctx, &mut warps[wi], self.compiled.as_ref());
                let reach = self.ladder.golden_dynamic + (ctx.dyn_count - strike_at);
                if !self.confined_decides(&ctx, reach) {
                    return Err(ctx.dyn_count - snap.dyn_count);
                }
                Some(warps[wi].wid)
            }
            _ => None,
        };
        let regfile_bytes: u64 = warps
            .iter()
            .filter(|w| w.rf.is_materialized())
            .map(|w| w.rf.stored_bytes())
            .sum();
        let shared_bytes = if ctx.shared.is_materialized() {
            snap.shared.len() as u64 * 4
        } else {
            0
        };
        let bytes_cloned =
            ctx.mem.pages_cloned() * self.page_words as u64 * 4 + shared_bytes + regfile_bytes;
        Ok(FastTrial {
            detection: ctx.detection,
            error: ctx.error,
            converged_early: converged,
            confined,
            rerun: false,
            executed: ctx.dyn_count - snap.dyn_count,
            resumed_from: snap.dyn_count,
            bytes_cloned,
            cow_pages_cloned: ctx.mem.pages_cloned(),
            cow_pages_total: ctx.mem.page_count() as u64,
            mem: ctx.mem,
        })
    }

    /// Rule 4's count bounds: is the end of a confined run the reference
    /// trial's end? `reach` is `golden + n`, the latest count at which the
    /// reference issues the struck warp's last instruction of the run; the
    /// confined run's own count is `d + n`, the earliest.
    ///
    /// * An owner check failed: undecided.
    /// * Fuel ran out (`d + n` passed it, and the dynamic cap did not stop
    ///   the run first): the reference hangs at the same count. A
    ///   cancellation ends the trial unrecorded either way.
    /// * `d + n` reached the dynamic cap: undecided (the reference's
    ///   truncated memory is unknown).
    /// * The warp halted or ended: decided when `reach` stays within fuel
    ///   and the cap, so the reference runs that far without stopping.
    fn confined_decides(&self, ctx: &FastCtx<'_>, reach: u64) -> bool {
        if matches!(ctx.access, Access::Check { broken: true, .. }) {
            return false;
        }
        match ctx.error {
            Some(ExecError::Hang { .. } | ExecError::Cancelled { .. }) => true,
            Some(_) => false,
            None => {
                !ctx.truncated
                    && self
                        .ladder
                        .finishes_within(reach, ctx.fuel, ctx.max_dynamic)
            }
        }
    }
}

/// Rule 4 covers transients and the predicate, active-mask and
/// scheduler-slot control targets: barrier strikes keep rule 3, and a
/// stuck-at defect re-asserts on its lane in every warp.
fn confinable(f: &FaultSpec) -> bool {
    match f.class {
        FaultClass::Transient => true,
        FaultClass::Control(t) => t != ControlTarget::Barrier,
        FaultClass::StuckAt(_) => false,
    }
}

/// Run warp `w` alone until it halts or ends, or an owner check fails
/// (rule 4 of DESIGN §9). Its barrier waits are released at once: barriers
/// carry no data between the warps of a warp-independent cell, and the
/// single-CTA scheduler always releases a waiting warp eventually.
fn run_confined(ctx: &mut FastCtx<'_>, w: &mut FastWarp, compiled: Option<&CompiledKernel>) {
    while !w.done() && !ctx.halted() && !matches!(ctx.access, Access::Check { broken: true, .. }) {
        w.waiting_bar = false;
        match compiled {
            Some(ck) => {
                ck.step(ctx, w, 64);
            }
            None => step(ctx, w),
        }
    }
}

/// Mutable per-warp execution state (the trace/recovery-free subset of the
/// reference executor's warp). `pub(crate)` so the tier-2 closure compiler
/// ([`crate::tier2`]) can execute against the same state the interpreter
/// uses.
pub(crate) struct FastWarp {
    pub(crate) wid: u32,
    pub(crate) frags: Vec<Fragment>,
    pub(crate) rf: CowRegFile,
    pub(crate) preds: [u8; 32],
    pub(crate) waiting_bar: bool,
}

impl FastWarp {
    fn done(&self) -> bool {
        self.frags.is_empty()
    }
}

/// Run-global execution state (everything the scheduler and every step
/// touches, other than the warps themselves).
pub(crate) struct FastCtx<'a> {
    pub(crate) pk: &'a PredecodedKernel,
    pub(crate) launch: Launch,
    /// The running CTA's index: CTAs run one after another, and campaigns
    /// run CTA 0 only.
    pub(crate) cta: u32,
    pub(crate) fault: Option<FaultSpec>,
    pub(crate) fuel: Option<u64>,
    pub(crate) max_dynamic: u64,
    pub(crate) mem: CowMemory,
    pub(crate) shared: CowShared,
    pub(crate) dyn_count: u64,
    pub(crate) eligible_orig: u64,
    pub(crate) eligible_shadow: u64,
    pub(crate) detection: Detection,
    pub(crate) pending_due: Option<bool>,
    pub(crate) truncated: bool,
    pub(crate) error: Option<ExecError>,
    pub(crate) faults_applied: u32,
    /// A control-state strike has been delivered (one-shot, keyed on the
    /// global dynamic-instruction counter rather than the eligible ones).
    pub(crate) control_delivered: bool,
    /// Armed cancellation token, polled at every issue (see
    /// [`crate::exec::CancelToken`]).
    pub(crate) cancel: Option<CancelToken>,
    /// What memory accesses log or check.
    pub(crate) access: Access<'a>,
    /// The traced pass's trace capture ([`traced_pass`]); `None` in
    /// campaigns.
    pub(crate) trace: Option<TraceSink>,
}

/// Per-warp trace capture for the running CTA: one reference
/// [`TraceEntry`] per issued warp-instruction, in issue order.
pub(crate) struct TraceSink {
    warps: Vec<Vec<TraceEntry>>,
}

impl TraceSink {
    /// Record the instruction at `pc` that warp `w` is about to issue from
    /// fragment `fi`, as the reference executor records it: the exec mask,
    /// and the memory transactions — the distinct 128-byte segments of the
    /// executing lanes' addresses for a global load or store, 1 for a
    /// shared access with any lane executing, the executing lanes for an
    /// atomic. The traced pass has no fault and no fuel, so the instruction
    /// does issue, on exactly these lanes, from this address column. Cold
    /// and out of line: trials carry no sink, and the untaken branch to it
    /// is all they pay.
    #[cold]
    #[inline(never)]
    fn record(&mut self, w: &FastWarp, mop: &MicroOp, pc: usize, fi: usize) {
        let mask = eval_guard(mop.guard, w.frags[fi].mask, &w.preds);
        let txns = match mop.uop {
            UOp::Ld {
                space: MemSpace::Shared,
                ..
            }
            | UOp::St {
                space: MemSpace::Shared,
                ..
            } => u8::from(mask != 0),
            UOp::Ld { addr, offset, .. } | UOp::St { addr, offset, .. } => {
                let (base, _) = read(w, addr, mask);
                let mut segs = [0u32; 32];
                let mut n = 0;
                for l in Lanes(mask) {
                    let seg = base[l].wrapping_add(offset) >> 7;
                    if !segs[..n].contains(&seg) {
                        segs[n] = seg;
                        n += 1;
                    }
                }
                n as u8
            }
            UOp::AtomAdd { .. } => mask.count_ones() as u8,
            _ => 0,
        };
        self.warps[w.wid as usize].push(TraceEntry {
            kidx: pc as u32,
            mask,
            txns,
        });
    }
}

/// A fault-free run's results as the reference executor reports them with
/// trace capture on ([`traced_pass`]).
#[derive(Debug)]
pub struct TracedPass {
    /// Detection state: fault-free, only a barrier reached while divergent
    /// ([`Detection::Hang`]) detects.
    pub detection: Detection,
    /// Executed dynamic warp-instructions.
    pub dynamic_instructions: u64,
    /// Whether `max_dynamic` truncated the run.
    pub truncated: bool,
    /// The warp traces of every CTA that ran to completion, in CTA order
    /// and warp order within a CTA. A halt drops the traces of the CTA it
    /// cut.
    pub traces: Vec<WarpTrace>,
}

/// The traced pass's copy-on-write page size in words (4 KiB). Nothing
/// else shares the pass's base, so each written page is copied once at
/// any size. Pages this large keep a serial run over the figure cells at
/// the reference executor's peak memory; the campaigns' 64-word pages
/// raise it by about 120 KiB.
const PASS_PAGE_WORDS: usize = 1024;

/// Run `kernel` fault-free over the first `ctas` CTAs of `launch` on the
/// campaign engine's exact-step core (tier 1: the pass runs once, so no
/// tier-2 compile pays off), recording what [`crate::exec::Executor::run`]
/// records with `collect_trace` set, `cta_limit: Some(ctas)`, the given
/// `max_dynamic` and unprotected registers: per issued warp-instruction its
/// kernel index, exec mask and memory transactions (distinct 128-byte
/// segments for a global load or store, 1 for a shared access with any
/// lane executing, the executing lanes for an atomic).
///
/// CTAs run one after another in index order, each with fresh warps and
/// fresh shared memory; global memory persists across them. `mem`'s words
/// are moved into the run's copy-on-write base and back, so on return, on
/// error too, `mem` holds the image the run left.
///
/// A halt stops the run where the reference's stops: the `max_dynamic`
/// cap, or a barrier reached while divergent ([`Detection::Hang`], the
/// watchdog's verdict on a barrier deadlock).
///
/// # Errors
///
/// The reference executor's [`ExecError::OutOfBoundsAccess`] for a
/// misaligned or out-of-bounds access. Without a fault the scheduler
/// cannot deadlock ([`ExecError::Trap`]): every round from its top issues
/// an instruction or releases a barrier.
pub fn traced_pass(
    kernel: &Kernel,
    launch: Launch,
    mem: &mut GlobalMemory,
    ctas: u32,
    max_dynamic: u64,
) -> Result<TracedPass, ExecError> {
    let pk = PredecodedKernel::new(kernel);
    let words = std::mem::replace(mem, GlobalMemory::from_words(Vec::new())).into_words();
    let mut ctx = FastCtx {
        pk: &pk,
        launch,
        cta: 0,
        fault: None,
        fuel: None,
        max_dynamic,
        mem: CowMemory::new(Arc::new(words), PASS_PAGE_WORDS),
        shared: CowShared::new_zeroed(0),
        dyn_count: 0,
        eligible_orig: 0,
        eligible_shadow: 0,
        detection: Detection::None,
        pending_due: None,
        truncated: false,
        error: None,
        faults_applied: 0,
        control_delivered: false,
        cancel: None,
        access: Access::Off,
        trace: None,
    };
    let mut traces = Vec::new();
    for cta in 0..ctas.min(launch.ctas) {
        ctx.cta = cta;
        ctx.shared = CowShared::new_zeroed(launch.shared_words as usize);
        let mut warps = new_warps(&pk, launch, Protection::None);
        ctx.trace = Some(TraceSink {
            warps: vec![Vec::new(); warps.len()],
        });
        run_rounds(
            &mut ctx,
            &mut warps,
            &mut Hook::Off,
            None,
            SchedPos::default(),
        );
        if ctx.halted() {
            break;
        }
        let sink = ctx.trace.take().expect("the pass traces");
        traces.extend((0..).zip(sink.warps).map(|(warp, entries)| WarpTrace {
            cta,
            warp,
            entries,
        }));
    }
    let FastCtx {
        mem: image,
        detection,
        dyn_count,
        truncated,
        error,
        ..
    } = ctx;
    *mem = image.into_global();
    match error {
        Some(e) => Err(e),
        None => Ok(TracedPass {
            detection,
            dynamic_instructions: dyn_count,
            truncated,
            traces,
        }),
    }
}

/// What `exec_uop`'s memory arms do with each global or shared word an
/// instruction reads or writes.
pub(crate) enum Access<'a> {
    /// Trials on the normal schedule: nothing.
    Off,
    /// The golden capture: record the accessing warp.
    Log(AccessLog),
    /// A confined trial (rule 4 of DESIGN §9): check the struck warp's
    /// accesses against the golden log; `broken` once one fails.
    Check { log: &'a AccessLog, broken: bool },
}

impl Access<'_> {
    #[inline]
    fn note(&mut self, space: MemSpace, addr: u32, wid: u32, write: bool) {
        match self {
            Access::Off => {}
            Access::Log(log) => log.record(space, addr, wid, write),
            Access::Check { log, broken } => {
                if !log.allows(space, addr, wid, write) {
                    *broken = true;
                }
            }
        }
    }
}

/// Which warps of the golden capture touched each global and shared word,
/// one byte per word: the low six bits hold the first accessor's warp id
/// plus one, [`Self::WRITTEN`] marks a word some warp wrote and
/// [`Self::MULTI`] a word a second warp touched. A word with both bits set
/// makes the kernel warp-dependent (rule 3 of DESIGN §9); a warp-independent
/// cell keeps its log for rule 4's owner checks.
#[derive(Debug, Clone)]
pub(crate) struct AccessLog {
    global: Vec<u8>,
    shared: Vec<u8>,
    /// Some word was written by one warp and touched by another.
    conflict: bool,
}

impl AccessLog {
    const WRITTEN: u8 = 0x40;
    const MULTI: u8 = 0x80;
    const OWNER: u8 = 0x3F;

    fn new(global_words: usize, shared_words: usize) -> Self {
        Self {
            global: vec![0; global_words],
            shared: vec![0; shared_words],
            conflict: false,
        }
    }

    /// Record warp `wid` reading (or writing) the word at byte address
    /// `addr` of `space`. Out-of-range addresses fault before they get
    /// here.
    fn record(&mut self, space: MemSpace, addr: u32, wid: u32, write: bool) {
        let words = match space {
            MemSpace::Global => &mut self.global,
            MemSpace::Shared => &mut self.shared,
        };
        let Some(cell) = words.get_mut((addr / 4) as usize) else {
            return;
        };
        // Warp ids that do not fit the owner field are treated as a
        // conflict: the flag may only err towards running trials in full.
        let owner = match u8::try_from(wid + 1) {
            Ok(o) if o <= Self::OWNER => o,
            _ => {
                self.conflict = true;
                return;
            }
        };
        if *cell & Self::OWNER == 0 {
            *cell |= owner;
        } else if *cell & Self::OWNER != owner {
            *cell |= Self::MULTI;
        }
        if write {
            *cell |= Self::WRITTEN;
        }
        if *cell & (Self::WRITTEN | Self::MULTI) == Self::WRITTEN | Self::MULTI {
            self.conflict = true;
        }
    }

    /// The log byte of the word at byte address `addr` of `space` (0, as
    /// for an untouched word, past the end: such an access faults first).
    fn cell(&self, space: MemSpace, addr: u32) -> u8 {
        let words = match space {
            MemSpace::Global => &self.global,
            MemSpace::Shared => &self.shared,
        };
        words.get((addr / 4) as usize).copied().unwrap_or(0)
    }

    /// Rule 4's owner rules, on a conflict-free log: warp `wid` may read a
    /// word no other warp writes in golden, and write a word no other warp
    /// touches in golden. A written word has a single accessor, its owner.
    fn allows(&self, space: MemSpace, addr: u32, wid: u32, write: bool) -> bool {
        let cell = self.cell(space, addr);
        let owner = u32::from(cell & Self::OWNER);
        let foreign = owner != 0 && owner != wid + 1;
        if write {
            !foreign && cell & Self::MULTI == 0
        } else {
            !foreign || cell & Self::WRITTEN == 0
        }
    }

    /// Whether a warp other than `wid` writes the global word at byte
    /// address `addr` in golden.
    fn foreign_write(&self, addr: u32, wid: u32) -> bool {
        let cell = self.cell(MemSpace::Global, addr);
        cell & Self::WRITTEN != 0 && u32::from(cell & Self::OWNER) != wid + 1
    }
}

impl FastCtx<'_> {
    pub(crate) fn halted(&self) -> bool {
        self.detection != Detection::None || self.truncated || self.error.is_some()
    }

    pub(crate) fn eligible_for(&self, target: FaultTarget) -> u64 {
        match target {
            FaultTarget::Original => self.eligible_orig,
            FaultTarget::Shadow => self.eligible_shadow,
        }
    }

    /// Is the armed fault provably unable to fire from this point on?
    /// Transients are spent once the matching-side eligible counter passed
    /// the strike index; a control strike is spent once delivered; a
    /// stuck-at defect is never spent (it re-asserts forever), which
    /// disables golden-convergence early-exit for that class.
    pub(crate) fn strike_spent(&self, f: &FaultSpec) -> bool {
        match f.class {
            FaultClass::Transient => self.eligible_for(f.target) > f.eligible_index,
            FaultClass::Control(_) => self.control_delivered,
            FaultClass::StuckAt(_) => false,
        }
    }

    /// Will an undelivered control strike land within the next `n` issued
    /// instructions? Tier-2 bulk walks and fused closures must drop to the
    /// exact interpreter path across the delivery point.
    pub(crate) fn control_pending_within(&self, n: u64) -> bool {
        match self.fault {
            Some(f) if f.is_control() && !self.control_delivered => {
                f.eligible_index < self.dyn_count + n
            }
            _ => false,
        }
    }

    fn mem_fault(&mut self, addr: u32) {
        if self.fault.is_some() {
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
}

/// The union of golden per-epoch dirty sets accumulated between the resume
/// rung and the furthest convergence candidate tried so far. Together with
/// the trial's own dirty tracking (materialized CoW pages, touched
/// registers, shared-memory materialization) it is a provable superset of
/// every location where trial and golden state at any candidate up to it
/// can differ: anything outside both sets still holds the resume snapshot's
/// bytes in *both* machines (DESIGN §14). A nearer candidate is compared
/// over the same union: a location only a later golden interval wrote holds
/// the resume bytes at the nearer rung, and in the trial unless the trial's
/// own dirty set covers it.
struct DeltaAcc {
    /// The last rung absorbed (the resume rung absorbs nothing).
    upto: usize,
    /// OR of golden `delta_pages` over rungs in `(resume, upto]`.
    pages: Vec<u64>,
    /// Per-warp OR of golden `delta_regs` over the same rungs.
    regs: Vec<Vec<u64>>,
    /// Whether any of those rungs saw a golden shared-memory write.
    shared: bool,
}

impl DeltaAcc {
    /// An empty union sized like rung `s`, the resume rung at index `si`.
    fn sized_like(s: &EpochSnapshot, si: usize) -> Self {
        Self {
            upto: si,
            pages: vec![0; s.delta_pages.len()],
            regs: s
                .warps
                .iter()
                .map(|w| vec![0; w.delta_regs.len()])
                .collect(),
            shared: false,
        }
    }

    /// Absorb the per-epoch golden deltas of every rung up to `r`.
    fn extend_to(&mut self, snaps: &[EpochSnapshot], r: usize) {
        while self.upto < r {
            self.upto += 1;
            let s = &snaps[self.upto];
            for (d, &x) in self.pages.iter_mut().zip(&s.delta_pages) {
                *d |= x;
            }
            for (dr, w) in self.regs.iter_mut().zip(&s.warps) {
                for (d, &x) in dr.iter_mut().zip(&w.delta_regs) {
                    *d |= x;
                }
            }
            self.shared |= s.delta_shared;
        }
    }
}

/// What the scheduler does at every warp boundary: before each warp's turn
/// in a round, the round top included.
enum Hook<'l> {
    /// The traced pass: nothing.
    Off,
    /// Golden run: capture an epoch snapshot at the first boundary at or
    /// past `next`.
    Capture {
        interval: u64,
        next: u64,
        out: &'l mut Vec<EpochSnapshot>,
        /// The kernel's static liveness, for each rung's [`LiveMask`].
        live: &'l Liveness,
        /// The kernel's `SHFL` source registers.
        shfl: [u64; 4],
    },
    /// Trial run: test for golden convergence at every warp boundary after
    /// the strike.
    Converge {
        ladder: &'l EpochLadder,
        /// Index of the rung the trial resumed from: only it and later rungs
        /// are candidates (the golden deltas run forward from it).
        resume: usize,
        fault: FaultSpec,
        /// Golden dirty sets accumulated since the resume rung.
        acc: DeltaAcc,
        /// Stop the schedule once the strike changes one warp's state while
        /// another warp is live, for the confined run (rule 4).
        confine: bool,
        converged: &'l mut bool,
    },
}

impl Hook<'_> {
    /// Run the hook at the warp boundary `sched`. Returns `true` when a
    /// trial has re-converged to golden and must stop.
    fn at_boundary(
        &mut self,
        ctx: &mut FastCtx<'_>,
        warps: &mut [FastWarp],
        sched: SchedPos,
    ) -> bool {
        match self {
            Hook::Off => false,
            Hook::Capture {
                interval,
                next,
                out,
                live,
                shfl,
            } => {
                if ctx.dyn_count >= *next && !ctx.halted() {
                    // Snapshots must hold consistent codewords: restore any
                    // check bits the tier-2 engine deferred before cloning.
                    for w in warps.iter_mut() {
                        if w.rf.has_deferred() {
                            w.rf.flush_deferred();
                        }
                    }
                    let rung = capture_epoch(ctx, warps, sched, live, *shfl, out.last());
                    out.push(rung);
                    *next = ctx.dyn_count + *interval;
                }
                false
            }
            Hook::Converge {
                ladder,
                resume,
                fault,
                acc,
                converged,
                ..
            } => {
                if !ctx.halted()
                    && ctx.pending_due.is_none()
                    && ctx.strike_spent(fault)
                    && converged_to_rung(ladder, *resume, ctx, warps, sched, acc)
                {
                    **converged = true;
                    return true;
                }
                false
            }
        }
    }
}

/// Capture one epoch rung at the warp boundary `sched`. Rebases the CoW
/// overlays (flattening writes into fresh shared bases) and drains the
/// per-warp touched bitmaps, so each rung records both the resume state and
/// the golden dirty set of the interval ending at it — and so trials
/// resuming from the captured `Arc`s start with clean dirty tracking. A warp
/// that wrote no register since the `prev` rung shares that rung's file.
fn capture_epoch(
    ctx: &mut FastCtx<'_>,
    warps: &mut [FastWarp],
    sched: SchedPos,
    live: &Liveness,
    shfl: [u64; 4],
    prev: Option<&EpochSnapshot>,
) -> EpochSnapshot {
    let (mem, delta_pages) = ctx.mem.rebase();
    let (shared, delta_shared) = ctx.shared.rebase();
    EpochSnapshot {
        dyn_count: ctx.dyn_count,
        eligible_orig: ctx.eligible_orig,
        eligible_shadow: ctx.eligible_shadow,
        sched,
        warps: warps
            .iter_mut()
            .enumerate()
            .map(|(wi, w)| {
                // Drain *before* cloning: the captured base must carry an
                // empty touched bitmap so resumed trials track only their
                // own writes.
                let delta_regs = w.rf.take_touched();
                let rf = match prev {
                    // Every write path sets a touched bit, so an empty delta
                    // means the file still equals the previous rung's.
                    Some(p) if delta_regs.iter().all(|&x| x == 0) => Arc::clone(&p.warps[wi].rf),
                    _ => Arc::new((*w.rf).clone()),
                };
                EpochWarp {
                    frags: w.frags.clone(),
                    preds: w.preds,
                    rf,
                    delta_regs,
                    live: LiveMask::at(&w.frags, live, shfl),
                }
            })
            .collect(),
        bars: warps.iter().map(|w| w.waiting_bar).collect(),
        pos_key: position_key(sched, warps),
        shared,
        delta_shared,
        mem,
        delta_pages,
    }
}

/// Whether the trial's scheduler and every warp stand where they stood at
/// rung `s`: the same next warp and round progress, the same fragments and
/// the same barrier flag (rule 2 of DESIGN §9).
fn positions_match(s: &EpochSnapshot, sched: SchedPos, warps: &[FastWarp]) -> bool {
    s.sched == sched
        && warps.len() == s.warps.len()
        && warps
            .iter()
            .zip(&s.warps)
            .zip(&s.bars)
            .all(|((w, ws), &bar)| w.waiting_bar == bar && w.frags == ws.frags)
}

/// Whether the trial's state equals rung `s`'s in everything the rest of
/// the run can read, given that [`positions_match`] already holds. Register
/// files compare stored words (`stored_eq_reg`): the decoder arming flag is
/// a performance hint with no architectural effect once every word a later
/// read decodes equals a (fault-free, hence consistent) golden codeword.
///
/// Registers and predicates are compared only where the rung's
/// [`LiveMask`] says a later read can reach them, on all 32 lanes (rule 1
/// of DESIGN §9), and bulk state only over the dirty superset: the trial's
/// materialized pages / touched registers / materialized shared memory,
/// unioned with the golden deltas accumulated in `acc`. Locations outside
/// both sets hold the resume snapshot's bytes in both machines, so skipping
/// them cannot mask a difference (DESIGN §14).
fn state_matches(s: &EpochSnapshot, ctx: &FastCtx<'_>, warps: &[FastWarp], acc: &DeltaAcc) -> bool {
    for ((w, ws), acc_regs) in warps.iter().zip(&s.warps).zip(&acc.regs) {
        let live = ws.live;
        if w.preds
            .iter()
            .zip(&ws.preds)
            .any(|(a, b)| (a ^ b) & live.preds != 0)
        {
            return false;
        }
        // An unmaterialized file has an all-zero touched bitmap (drained at
        // capture), so only the golden deltas are walked for it.
        let touched = w.rf.touched_bits();
        for (word, (&acc_bits, &live_bits)) in acc_regs.iter().zip(&live.regs).enumerate() {
            let mut bits = (acc_bits | touched.get(word).copied().unwrap_or(0)) & live_bits;
            while bits != 0 {
                let reg = (word * 64) as u32 + bits.trailing_zeros();
                bits &= bits - 1;
                if !w.rf.stored_eq_reg(&ws.rf, reg as u8) {
                    return false;
                }
            }
        }
    }
    if (acc.shared || ctx.shared.is_materialized()) && ctx.shared.words() != s.shared.as_slice() {
        return false;
    }
    let resident = ctx.mem.resident_bits();
    for (word, &acc_bits) in acc.pages.iter().enumerate() {
        let mut bits = acc_bits | resident.get(word).copied().unwrap_or(0);
        while bits != 0 {
            let p = word * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if !ctx.mem.page_eq(p, s.mem.as_slice()) {
                return false;
            }
        }
    }
    true
}

/// Rule 2 of DESIGN §9: is there a rung at or after `resume` that the
/// trial's state has re-converged to? A candidate stands at the trial's
/// scheduler and warp positions, and its golden suffix, shifted to the
/// trial's count, must finish within the trial's fuel and dynamic cap.
fn converged_to_rung(
    ladder: &EpochLadder,
    resume: usize,
    ctx: &FastCtx<'_>,
    warps: &mut [FastWarp],
    sched: SchedPos,
    acc: &mut DeltaAcc,
) -> bool {
    let snaps = &ladder.snapshots;
    let key = position_key(sched, warps);
    let mut flushed = false;
    for (r, s) in snaps.iter().enumerate().skip(resume) {
        if s.pos_key != key {
            continue;
        }
        let finish = ctx.dyn_count + (ladder.golden_dynamic - s.dyn_count);
        if !ladder.finishes_within(finish, ctx.fuel, ctx.max_dynamic)
            || !positions_match(s, sched, warps)
        {
            continue;
        }
        if !flushed {
            // The stored-state comparison reads check bits: restore any the
            // tier-2 engine deferred first. The `has_deferred` guard keeps
            // unwritten (still shared) register files unmaterialized — a
            // shared base is captured flushed, so it never defers.
            for w in warps.iter_mut() {
                if w.rf.has_deferred() {
                    w.rf.flush_deferred();
                }
            }
            flushed = true;
        }
        acc.extend_to(snaps, r);
        if state_matches(s, ctx, warps, acc) {
            return true;
        }
    }
    false
}

fn new_warps(pk: &PredecodedKernel, launch: Launch, protection: Protection) -> Vec<FastWarp> {
    (0..launch.warps_per_cta())
        .map(|wid| {
            let first = wid * 32;
            let count = launch.threads_per_cta.saturating_sub(first).min(32);
            let mask = if count >= 32 {
                u32::MAX
            } else {
                (1u32 << count) - 1
            };
            FastWarp {
                wid,
                frags: vec![Fragment { pc: 0, mask }],
                rf: CowRegFile::owned(WarpRegFile::new(pk.regs(), protection)),
                preds: [0; 32],
                waiting_bar: false,
            }
        })
        .collect()
}

/// The round scheduler of one CTA: identical to the reference executor's
/// per-CTA loop (64-instruction quanta per warp, barrier release when all
/// live warps wait, deadlock watchdog), with the hook at every warp
/// boundary. It starts at `start`, the round top for a golden run and the
/// resume rung's position for a trial, which finishes that partial round
/// first. With `compiled` present, warps step through the tier-2
/// closure buffer; fused superinstructions consume two budget slots per
/// dispatch, and the final slot of a quantum always runs the tier-1
/// interpreter step so the quantum can never overshoot — warp interleaving
/// (and with it the global dynamic-instruction and eligible-op counter
/// sequences that fault targeting and detection timestamps observe) is
/// byte-identical across tiers.
///
/// Returns the index of the struck warp when the hook asked to confine and
/// the strike landed while another warp was live; the schedule stops right
/// after the striking step.
fn run_rounds(
    ctx: &mut FastCtx<'_>,
    warps: &mut [FastWarp],
    hook: &mut Hook<'_>,
    compiled: Option<&CompiledKernel>,
    start: SchedPos,
) -> Option<usize> {
    let mut confine = matches!(hook, Hook::Converge { confine: true, .. });
    let mut sched = start;
    loop {
        while sched.next < warps.len() {
            if hook.at_boundary(ctx, warps, sched) {
                return None;
            }
            let wi = sched.next;
            let mut budget = 64i32;
            while budget > 0 {
                let w = &mut warps[wi];
                if w.done() || w.waiting_bar {
                    break;
                }
                match compiled {
                    Some(ck) if budget > 1 => budget -= ck.step(ctx, w, budget),
                    _ => {
                        step(ctx, w);
                        budget -= 1;
                    }
                }
                sched.progressed = true;
                if ctx.halted() {
                    return None;
                }
                // A transient that fired on an inactive lane changed
                // nothing and leaves `faults_applied` at zero.
                if confine && ctx.faults_applied != 0 {
                    confine = false;
                    if warps.iter().enumerate().any(|(j, o)| j != wi && !o.done()) {
                        return Some(wi);
                    }
                }
            }
            sched.next += 1;
        }
        let mut live_any = false;
        let mut all_wait = true;
        for w in warps.iter() {
            if !w.done() {
                live_any = true;
                if !w.waiting_bar {
                    all_wait = false;
                }
            }
        }
        if live_any && all_wait {
            for w in warps.iter_mut() {
                if !w.done() {
                    w.waiting_bar = false;
                }
            }
            sched.progressed = true;
        }
        if warps.iter().all(FastWarp::done) {
            return None;
        }
        if !sched.progressed {
            ctx.error = Some(ExecError::Trap { at: ctx.dyn_count });
            return None;
        }
        sched = SchedPos::default();
    }
}

/// Pick the fragment the scheduler issues next: the minimum-PC fragment
/// (the reference executor's reconvergence heuristic).
///
/// # Panics
///
/// Panics when the warp has no fragments (stepping a finished warp).
#[inline]
pub(crate) fn pick_fragment(w: &FastWarp) -> usize {
    if w.frags.len() == 1 {
        return 0;
    }
    w.frags
        .iter()
        .enumerate()
        .min_by_key(|(_, f)| f.pc)
        .map(|(i, _)| i)
        .expect("stepping a finished warp")
}

/// Execute one instruction of one warp (the predecoded twin of the
/// reference executor's `step`), recording it first when the run traces.
fn step(ctx: &mut FastCtx<'_>, w: &mut FastWarp) {
    let fi = pick_fragment(w);
    let pc = w.frags[fi].pc;
    if pc >= ctx.pk.len() {
        w.frags.remove(fi);
        return;
    }
    let pk = ctx.pk;
    let mop = pk.op_ref(pc);
    if let Some(sink) = &mut ctx.trace {
        sink.record(w, mop, pc, fi);
    }
    step_with(ctx, w, mop, fi);
}

/// The per-instruction body shared by the tier-1 interpreter and the tier-2
/// generic closures: guard evaluation, issue accounting, fault targeting,
/// execution, DUE promotion and fragment merging — everything `step` does
/// after picking the fragment and bounds-checking the PC.
pub(crate) fn step_with(ctx: &mut FastCtx<'_>, w: &mut FastWarp, mop: &MicroOp, fi: usize) {
    if deliver_control(ctx, w, fi) {
        return;
    }
    let frag_mask = w.frags[fi].mask;
    let exec_mask = eval_guard(mop.guard, frag_mask, &w.preds);

    if !account_issue(ctx) {
        return;
    }

    let inject = target_and_bump(ctx, mop.eligible);

    exec_uop(ctx, w, mop, fi, exec_mask, inject);

    promote_due(ctx);

    merge_frags(w);
}

/// Deliver a pending control-state strike to the warp issuing the current
/// global dynamic instruction — the predecoded twin of the reference
/// executor's delivery block, placed before guard evaluation so a predicate
/// strike misguards the very instruction it lands on. Returns `true` when
/// the issue is aborted (state-only targets corrupt control state and lose
/// the fetched instruction without advancing the dynamic counter).
pub(crate) fn deliver_control(ctx: &mut FastCtx<'_>, w: &mut FastWarp, fi: usize) -> bool {
    let Some(f) = ctx.fault else {
        return false;
    };
    let Some(ct) = f.control_target() else {
        return false;
    };
    if ctx.control_delivered || ctx.dyn_count < f.eligible_index {
        return false;
    }
    ctx.control_delivered = true;
    ctx.faults_applied += 1;
    match ct {
        ControlTarget::Predicate => {
            w.preds[f.lane as usize] ^= f.xor_mask as u8;
            false
        }
        ControlTarget::ActiveMask => {
            w.frags[fi].mask ^= f.xor_mask as u32;
            if w.frags[fi].mask == 0 {
                w.frags.remove(fi);
            }
            true
        }
        ControlTarget::Barrier => {
            w.waiting_bar = !w.waiting_bar;
            true
        }
        ControlTarget::SchedulerSlot => {
            w.frags[fi].pc ^= f.xor_mask as usize;
            true
        }
    }
}

/// Lower a pre-decoded guard to the executing lane mask.
#[inline]
pub(crate) fn eval_guard(guard: Guard, frag_mask: u32, preds: &[u8; 32]) -> u32 {
    match guard {
        Guard::Always => frag_mask,
        Guard::Never => 0,
        Guard::If(bit) => guard_mask(frag_mask, preds, bit, true),
        Guard::IfNot(bit) => guard_mask(frag_mask, preds, bit, false),
    }
}

/// Charge one issued instruction against the dynamic-count cap and the fuel
/// budget. Returns `false` when fuel ran out (the instruction must not
/// execute, exactly like the interpreter's early return).
#[inline]
pub(crate) fn account_issue(ctx: &mut FastCtx<'_>) -> bool {
    ctx.dyn_count += 1;
    if ctx.dyn_count >= ctx.max_dynamic {
        ctx.truncated = true;
    }
    if let Some(fuel) = ctx.fuel {
        if ctx.dyn_count > fuel {
            ctx.error = Some(ExecError::Hang {
                steps: ctx.dyn_count,
            });
            return false;
        }
    }
    if let Some(token) = &ctx.cancel {
        if token.is_cancelled() {
            ctx.error = Some(ExecError::Cancelled { at: ctx.dyn_count });
            return false;
        }
    }
    true
}

/// Fault targeting: per-side eligible counters advance on every eligible
/// instruction (both golden capture and trials), and the strike fires when
/// the matching side's counter reaches the sampled index.
#[inline]
pub(crate) fn target_and_bump(
    ctx: &mut FastCtx<'_>,
    eligible: Option<FaultTarget>,
) -> Option<FaultSpec> {
    let mut inject: Option<FaultSpec> = None;
    if let Some(t) = eligible {
        let seen = match t {
            FaultTarget::Original => &mut ctx.eligible_orig,
            FaultTarget::Shadow => &mut ctx.eligible_shadow,
        };
        if let Some(f) = ctx.fault {
            if f.target == t && f.fires_at(*seen) {
                inject = Some(f);
            }
        }
        *seen += 1;
    }
    inject
}

/// Promote a decode-raised pending DUE into the run's detection state.
#[inline]
pub(crate) fn promote_due(ctx: &mut FastCtx<'_>) {
    if let Some(pipeline_suspected) = ctx.pending_due.take() {
        ctx.detection = Detection::Due {
            at: ctx.dyn_count,
            pipeline_suspected,
        };
    }
}

/// Merge fragments that reconverged and drop empty ones. The single-fragment
/// case (the overwhelmingly common one) is allocation-free.
pub(crate) fn merge_frags(w: &mut FastWarp) {
    if w.frags.len() == 1 {
        if w.frags[0].mask == 0 {
            w.frags.clear();
        }
        return;
    }
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

fn guard_mask(frag_mask: u32, preds: &[u8; 32], bit: u8, want_set: bool) -> u32 {
    let mut mask = 0u32;
    let mut m = frag_mask;
    while m != 0 {
        let lane = m.trailing_zeros();
        m &= m - 1;
        let set = preds[lane as usize] & (1 << bit) != 0;
        if set == want_set {
            mask |= 1 << lane;
        }
    }
    mask
}

const RZ8: u8 = 255;

fn pair_hi(reg: u8) -> u8 {
    assert!(reg < 254, "R{reg} has no pair register above it");
    reg + 1
}

/// Lanes `0..=lane`.
#[inline]
fn through(lane: usize) -> u32 {
    u32::MAX >> (31 - lane)
}

/// The first decode DUE of one warp-instruction by the reference
/// executor's rule: the lowest lane that raised one, and within that lane
/// the operand read first.
#[derive(Clone, Copy)]
struct FirstDue {
    /// 32 while no read raised a DUE.
    lane: u32,
    pipeline_suspected: bool,
}

impl FirstDue {
    const NONE: Self = Self {
        lane: 32,
        pipeline_suspected: false,
    };

    /// Fold in one operand's column read, in operand read order, counting
    /// only the lanes in `reached` (the lanes that performed this read).
    #[inline]
    fn note(&mut self, d: DueLanes, reached: u32) {
        let hit = d.due & reached;
        if hit != 0 && hit.trailing_zeros() < self.lane {
            self.lane = hit.trailing_zeros();
            self.pipeline_suspected = d.pipeline & (1 << self.lane) != 0;
        }
    }

    /// Record the DUE, if any, as the instruction's pending detection.
    fn raise(self, ctx: &mut FastCtx<'_>) {
        if self.lane < 32 {
            ctx.pending_due.get_or_insert(self.pipeline_suspected);
        }
    }
}

/// Register `reg` of the lanes in `mask`, through the decoder, with the
/// lanes that raised a DUE; `RZ` reads 0.
#[inline]
fn read(w: &FastWarp, reg: u8, mask: u32) -> ([u32; 32], DueLanes) {
    if reg == RZ8 {
        return ([0; 32], DueLanes::default());
    }
    w.rf.read_col(reg, mask)
}

/// [`read`] of an operand every lane in `mask` reads, noted in `due`.
#[inline]
fn reg_col(w: &FastWarp, reg: u8, mask: u32, due: &mut FirstDue) -> [u32; 32] {
    let (v, d) = read(w, reg, mask);
    due.note(d, mask);
    v
}

/// A scalar source operand as a column: a register, or an immediate
/// broadcast to every lane.
#[inline]
fn src_col(w: &FastWarp, s: PSrc, mask: u32, due: &mut FirstDue) -> [u32; 32] {
    match s {
        PSrc::Reg(reg) => reg_col(w, reg, mask, due),
        PSrc::Imm(v) => [v; 32],
    }
}

/// A 64-bit register pair as a column: the low register, then the high
/// one; `RZ` reads 0 and reads no pair.
#[inline]
fn pair_col(w: &FastWarp, reg: u8, mask: u32, due: &mut FirstDue) -> [u64; 32] {
    if reg == RZ8 {
        return [0; 32];
    }
    let lo = reg_col(w, reg, mask, due);
    let hi = reg_col(w, pair_hi(reg), mask, due);
    std::array::from_fn(|l| u64::from(hi[l]) << 32 | u64::from(lo[l]))
}

/// Lane-wise `f` over two columns.
#[inline(always)]
fn zip_col<T: Copy, U>(a: &[T; 32], b: &[T; 32], f: impl Fn(T, T) -> U) -> [U; 32] {
    std::array::from_fn(|l| f(a[l], b[l]))
}

/// Lane-wise `f` over three columns.
#[inline(always)]
fn zip3_col<T: Copy>(a: &[T; 32], b: &[T; 32], c: &[T; 32], f: impl Fn(T, T, T) -> T) -> [T; 32] {
    std::array::from_fn(|l| f(a[l], b[l], c[l]))
}

/// The lane a datapath strike lands on: the strike's lane when it is
/// active, which then counts as applied.
#[inline]
fn strike_lane(ctx: &mut FastCtx<'_>, inject: Option<FaultSpec>, mask: u32) -> Option<FaultSpec> {
    let fs = inject.filter(|fs| mask & (1 << fs.lane) != 0)?;
    ctx.faults_applied += 1;
    Some(fs)
}

/// Write `vals` on the lanes in `mask` of `d` (`RZ` discards them). Only a
/// write that reaches a lane materializes a copy-on-write file.
#[inline]
fn write(
    w: &mut FastWarp,
    mode: WriteMode,
    d: u8,
    mask: u32,
    vals: &[u32; 32],
    strike: Option<(usize, u32)>,
) {
    if d != RZ8 && mask != 0 {
        w.rf.write_col(mode, d, mask, vals, strike);
    }
}

/// Apply a datapath strike to its lane, if active, and write the 32-bit
/// result column.
fn commit(
    ctx: &mut FastCtx<'_>,
    w: &mut FastWarp,
    mop: &MicroOp,
    d: u8,
    mask: u32,
    mut out: [u32; 32],
    inject: Option<FaultSpec>,
) {
    let strike = strike_lane(ctx, inject, mask).map(|fs| {
        let l = fs.lane as usize;
        let golden = out[l];
        out[l] = fs.apply32(golden);
        (l, golden)
    });
    write(w, mop.write, d, mask, &out, strike);
}

/// [`commit`] for a 64-bit result: the strike applies to the whole pair
/// value, then the low and high halves are written to `d` and its pair.
fn commit64(
    ctx: &mut FastCtx<'_>,
    w: &mut FastWarp,
    mop: &MicroOp,
    d: u8,
    mask: u32,
    mut out: [u64; 32],
    inject: Option<FaultSpec>,
) {
    if mask == 0 {
        return;
    }
    let strike = strike_lane(ctx, inject, mask).map(|fs| {
        let l = fs.lane as usize;
        let golden = out[l];
        out[l] = fs.apply64(golden);
        (l, golden)
    });
    for (reg, shift) in [(d, 0), (pair_hi(d), 32)] {
        let half = out.map(|v| (v >> shift) as u32);
        let strike = strike.map(|(l, g)| (l, (g >> shift) as u32));
        write(w, mop.write, reg, mask, &half, strike);
    }
}

fn alu2_col(kind: Alu2Kind, a: &[u32; 32], b: &[u32; 32]) -> [u32; 32] {
    let f = f32::from_bits;
    match kind {
        Alu2Kind::IAdd => zip_col(a, b, u32::wrapping_add),
        Alu2Kind::ISub => zip_col(a, b, u32::wrapping_sub),
        Alu2Kind::IMul => zip_col(a, b, u32::wrapping_mul),
        Alu2Kind::IMin => zip_col(a, b, |x, y| (x as i32).min(y as i32) as u32),
        Alu2Kind::IMax => zip_col(a, b, |x, y| (x as i32).max(y as i32) as u32),
        Alu2Kind::Shl => zip_col(a, b, |x, y| x << (y & 31)),
        Alu2Kind::Shr => zip_col(a, b, |x, y| x >> (y & 31)),
        Alu2Kind::And => zip_col(a, b, |x, y| x & y),
        Alu2Kind::Or => zip_col(a, b, |x, y| x | y),
        Alu2Kind::Xor => zip_col(a, b, |x, y| x ^ y),
        Alu2Kind::FAdd => zip_col(a, b, |x, y| (f(x) + f(y)).to_bits()),
        Alu2Kind::FMul => zip_col(a, b, |x, y| (f(x) * f(y)).to_bits()),
        Alu2Kind::FMin => zip_col(a, b, |x, y| f(x).min(f(y)).to_bits()),
        Alu2Kind::FMax => zip_col(a, b, |x, y| f(x).max(f(y)).to_bits()),
    }
}

fn alu1_col(kind: Alu1Kind, a: &[u32; 32]) -> [u32; 32] {
    let f = f32::from_bits;
    match kind {
        Alu1Kind::Not => a.map(|v| !v),
        Alu1Kind::MufuRcp => a.map(|v| (1.0 / f(v)).to_bits()),
        Alu1Kind::MufuSqrt => a.map(|v| f(v).sqrt().to_bits()),
        Alu1Kind::MufuEx2 => a.map(|v| f(v).exp2().to_bits()),
        Alu1Kind::MufuLg2 => a.map(|v| f(v).log2().to_bits()),
        Alu1Kind::I2F => a.map(|v| (v as i32 as f32).to_bits()),
        Alu1Kind::F2I => a.map(|v| f(v) as i32 as u32),
    }
}

/// Execute one warp-instruction on the lanes in `exec_mask` as 32-lane
/// columns: every source register is read once as a column (decoding only
/// the lanes that read it), the operation is selected once and computed
/// lane-wise, a datapath strike lands afterwards on its one lane if that
/// lane is active, and the result column goes through one register-file
/// column write. Memory operations access memory lane by lane, in lane
/// order, and stop at the first faulting lane; only the lanes before it
/// (and its own reads up to the fault) count. Decode DUEs follow the
/// reference executor's order: lowest lane first, then operand read order.
#[allow(clippy::too_many_lines)]
pub(crate) fn exec_uop(
    ctx: &mut FastCtx<'_>,
    w: &mut FastWarp,
    mop: &MicroOp,
    fi: usize,
    exec_mask: u32,
    inject: Option<FaultSpec>,
) {
    let m = exec_mask;
    let mut due = FirstDue::NONE;
    match mop.uop {
        UOp::Nop => {}
        UOp::Bar => {
            if w.frags.len() > 1 && ctx.detection == Detection::None {
                ctx.detection = Detection::Hang { at: ctx.dyn_count };
            }
            w.waiting_bar = true;
        }
        UOp::Exit => {
            w.frags[fi].mask &= !m;
        }
        UOp::Trap => {
            if m != 0 {
                ctx.detection = Detection::Trap { at: ctx.dyn_count };
            }
        }
        UOp::Bra { target } => {
            let not_taken = w.frags[fi].mask & !m;
            let fall_pc = w.frags[fi].pc + 1;
            if m != 0 {
                w.frags[fi].mask = m;
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
            return;
        }
        UOp::S2R { d, sr } => {
            let lane = |l: usize| l as u32;
            let out: [u32; 32] = match sr {
                SpecialReg::TidX => std::array::from_fn(|l| w.wid * 32 + lane(l)),
                SpecialReg::NTidX => [ctx.launch.threads_per_cta; 32],
                SpecialReg::CtaIdX => [ctx.cta; 32],
                SpecialReg::NCtaIdX => [ctx.launch.ctas; 32],
                SpecialReg::LaneId => std::array::from_fn(lane),
                SpecialReg::WarpId => [w.wid; 32],
            };
            commit(ctx, w, mop, d, m, out, inject);
        }
        UOp::Mov { d, a } => {
            let out = src_col(w, a, m, &mut due);
            commit(ctx, w, mop, d, m, out, inject);
        }
        UOp::Alu2 { kind, d, a, b } => {
            // The reference executor reads the shift amount before the
            // shifted value; all other two-source ops read `a` first.
            let (x, y) = if matches!(kind, Alu2Kind::Shl | Alu2Kind::Shr) {
                let y = src_col(w, b, m, &mut due);
                (reg_col(w, a, m, &mut due), y)
            } else {
                let x = reg_col(w, a, m, &mut due);
                (x, src_col(w, b, m, &mut due))
            };
            commit(ctx, w, mop, d, m, alu2_col(kind, &x, &y), inject);
        }
        UOp::Alu1 { kind, d, a } => {
            let x = reg_col(w, a, m, &mut due);
            commit(ctx, w, mop, d, m, alu1_col(kind, &x), inject);
        }
        UOp::IMad { d, a, b, c } => {
            let x = reg_col(w, a, m, &mut due);
            let y = reg_col(w, b, m, &mut due);
            let z = reg_col(w, c, m, &mut due);
            let out = zip3_col(&x, &y, &z, |x, y, z| x.wrapping_mul(y).wrapping_add(z));
            commit(ctx, w, mop, d, m, out, inject);
        }
        UOp::IMadWide { d, a, b, c } => {
            let x = reg_col(w, a, m, &mut due);
            let y = reg_col(w, b, m, &mut due);
            let z = pair_col(w, c, m, &mut due);
            let out = std::array::from_fn(|l| {
                u64::from(x[l])
                    .wrapping_mul(u64::from(y[l]))
                    .wrapping_add(z[l])
            });
            commit64(ctx, w, mop, d, m, out, inject);
        }
        UOp::FFma { d, a, b, c } => {
            let f = f32::from_bits;
            let x = reg_col(w, a, m, &mut due);
            let y = reg_col(w, b, m, &mut due);
            let z = reg_col(w, c, m, &mut due);
            let out = zip3_col(&x, &y, &z, |x, y, z| f(x).mul_add(f(y), f(z)).to_bits());
            commit(ctx, w, mop, d, m, out, inject);
        }
        UOp::DAdd { d, a, b } | UOp::DMul { d, a, b } => {
            let f = f64::from_bits;
            let x = pair_col(w, a, m, &mut due);
            let y = pair_col(w, b, m, &mut due);
            let out = if matches!(mop.uop, UOp::DAdd { .. }) {
                zip_col(&x, &y, |x, y| (f(x) + f(y)).to_bits())
            } else {
                zip_col(&x, &y, |x, y| (f(x) * f(y)).to_bits())
            };
            commit64(ctx, w, mop, d, m, out, inject);
        }
        UOp::DFma { d, a, b, c } => {
            let f = f64::from_bits;
            let x = pair_col(w, a, m, &mut due);
            let y = pair_col(w, b, m, &mut due);
            let z = pair_col(w, c, m, &mut due);
            let out = zip3_col(&x, &y, &z, |x, y, z| f(x).mul_add(f(y), f(z)).to_bits());
            commit64(ctx, w, mop, d, m, out, inject);
        }
        UOp::SetP {
            p,
            skip,
            cmp,
            ty,
            a,
            b,
        } => {
            let x = reg_col(w, a, m, &mut due);
            let y = src_col(w, b, m, &mut due);
            if !skip {
                for l in Lanes(m) {
                    let bit = u8::from(compare(cmp, ty, x[l], y[l])) << p;
                    w.preds[l] = w.preds[l] & !(1 << p) | bit;
                }
            }
        }
        UOp::Sel { d, p, p_true, a, b } => {
            let sel = if p_true {
                m
            } else {
                Lanes(m)
                    .filter(|&l| w.preds[l] & (1 << p) != 0)
                    .fold(0, |s, l| s | 1 << l)
            };
            // Each lane reads only the operand it selects.
            let x = reg_col(w, a, sel, &mut due);
            let y = src_col(w, b, m & !sel, &mut due);
            let out = std::array::from_fn(|l| if sel & (1 << l) != 0 { x[l] } else { y[l] });
            commit(ctx, w, mop, d, m, out, inject);
        }
        UOp::Ld {
            d,
            space,
            addr,
            offset,
            w64,
        } => {
            let (base, addr_due) = read(w, addr, m);
            // The loaded low and high words, and the lanes that loaded each.
            let mut words = [[0u32; 32]; 2];
            let mut loaded = [0u32; 2];
            let mut reached = m;
            'lanes: for l in Lanes(m) {
                let at = base[l].wrapping_add(offset);
                for half in 0..=usize::from(w64) {
                    let at = at.wrapping_add(4 * half as u32);
                    let v = match space {
                        MemSpace::Global => ctx.mem.try_read(at),
                        MemSpace::Shared => ctx.shared.try_read(at),
                    };
                    let Some(v) = v else {
                        ctx.mem_fault(at);
                        reached &= through(l);
                        break 'lanes;
                    };
                    ctx.access.note(space, at, w.wid, false);
                    words[half][l] = v;
                    loaded[half] |= 1 << l;
                }
            }
            due.note(addr_due, reached);
            write(w, mop.write, d, loaded[0], &words[0], None);
            if loaded[1] != 0 {
                write(w, mop.write, pair_hi(d), loaded[1], &words[1], None);
            }
        }
        UOp::St {
            space,
            addr,
            offset,
            v,
            w64,
        } => {
            let (base, addr_due) = read(w, addr, m);
            let (lo, lo_due) = read(w, v, m);
            let (hi, hi_due) = if w64 && m != 0 {
                read(w, pair_hi(v), m)
            } else {
                ([0; 32], DueLanes::default())
            };
            let words = [lo, hi];
            // The lanes that read `v`, and the lanes that read its pair.
            let (mut reached, mut hi_reached) = (m, m);
            'lanes: for l in Lanes(m) {
                let at = base[l].wrapping_add(offset);
                for (half, word) in words.iter().take(1 + usize::from(w64)).enumerate() {
                    let at = at.wrapping_add(4 * half as u32);
                    let ok = match space {
                        MemSpace::Global => ctx.mem.try_write(at, word[l]),
                        MemSpace::Shared => ctx.shared.try_write(at, word[l]),
                    };
                    if !ok {
                        ctx.mem_fault(at);
                        reached &= through(l);
                        // A faulting low half stops the lane before it
                        // reads the pair register.
                        hi_reached &= through(l) >> (1 - half);
                        break 'lanes;
                    }
                    ctx.access.note(space, at, w.wid, true);
                }
            }
            due.note(addr_due, reached);
            due.note(lo_due, reached);
            if w64 {
                due.note(hi_due, hi_reached);
            }
        }
        UOp::AtomAdd { addr, offset, v } => {
            let (base, addr_due) = read(w, addr, m);
            let (val, val_due) = read(w, v, m);
            let mut reached = m;
            for l in Lanes(m) {
                let at = base[l].wrapping_add(offset);
                if ctx.mem.try_atomic_add(at, val[l]).is_none() {
                    ctx.mem_fault(at);
                    reached &= through(l);
                    break;
                }
                ctx.access.note(MemSpace::Global, at, w.wid, true);
            }
            due.note(addr_due, reached);
            due.note(val_due, reached);
        }
        UOp::Shfl { d, a, mode } => {
            let vals = if a == RZ8 { [0; 32] } else { w.rf.peek_col(a) };
            let from: [u32; 32] = match mode {
                PShflMode::Idx(s) => src_col(w, s, m, &mut due).map(|s| s & 31),
                PShflMode::Bfly(k) => std::array::from_fn(|l| l as u32 ^ (k & 31)),
                PShflMode::Down(dl) => std::array::from_fn(|l| (l as u32).wrapping_add(dl).min(31)),
                PShflMode::Up(dl) => std::array::from_fn(|l| (l as u32).saturating_sub(dl)),
            };
            let out = from.map(|s| vals[s as usize]);
            write(w, mop.write, d, m, &out, None);
        }
    }
    due.raise(ctx);
    w.frags[fi].pc += 1;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Executor;
    use crate::regfile::RegFileEvent;
    use swapcodes_isa::{CmpOp, CmpTy, KernelBuilder, Op, Pred, Reg, Src};

    /// The golden capture of an unprotected kernel on tier 1.
    fn capture_tier1(
        kernel: &Kernel,
        launch: Launch,
        initial: &GlobalMemory,
        interval: u64,
    ) -> (CampaignEngine, GoldenCapture) {
        let cfg = ExecConfig::default();
        CampaignEngine::capture_config(kernel, launch, Protection::None, initial, interval, &cfg)
            .expect("capture")
    }

    /// A looping, divergent kernel (long enough to span several scheduler
    /// rounds, so the ladder gets multiple rungs): each thread accumulates
    /// `tid*tid + 7` over 20 iterations, threads with index < 8 take an
    /// extra increment branch, then everything is stored to global memory.
    fn test_kernel() -> Kernel {
        let mut b = KernelBuilder::new("snaptest");
        b.push(Op::S2R {
            d: Reg(0),
            sr: SpecialReg::TidX,
        });
        b.push(Op::Mov {
            d: Reg(1),
            a: Src::Imm(0),
        });
        b.push(Op::Mov {
            d: Reg(3),
            a: Src::Imm(20),
        });
        let top = b.label();
        b.bind(top);
        b.push(Op::IMad {
            d: Reg(1),
            a: Reg(0),
            b: Reg(0),
            c: Reg(1),
        });
        b.push(Op::ISub {
            d: Reg(3),
            a: Reg(3),
            b: Src::Imm(1),
        });
        b.push(Op::SetP {
            p: Pred(1),
            cmp: CmpOp::Gt,
            ty: CmpTy::I32,
            a: Reg(3),
            b: Src::Imm(0),
        });
        b.branch_if(top, Pred(1), true);
        b.push(Op::IAdd {
            d: Reg(1),
            a: Reg(1),
            b: Src::Imm(7),
        });
        b.push(Op::SetP {
            p: Pred(0),
            cmp: CmpOp::Lt,
            ty: CmpTy::I32,
            a: Reg(0),
            b: Src::Imm(8),
        });
        let skip = b.label();
        b.branch_if(skip, Pred(0), false);
        b.push(Op::IAdd {
            d: Reg(1),
            a: Reg(1),
            b: Src::Imm(100),
        });
        b.bind(skip);
        b.push(Op::Shl {
            d: Reg(2),
            a: Reg(0),
            b: Src::Imm(2),
        });
        b.push(Op::St {
            space: MemSpace::Global,
            addr: Reg(2),
            offset: 0,
            v: Reg(1),
            width: swapcodes_isa::MemWidth::W32,
        });
        b.push(Op::Exit);
        b.finish()
    }

    fn classic_golden(kernel: &Kernel, launch: Launch, mem: &mut GlobalMemory) -> u64 {
        let exec = Executor {
            config: ExecConfig {
                cta_limit: Some(1),
                ..ExecConfig::default()
            },
        };
        let out = exec.run(kernel, launch, mem).expect("golden runs");
        assert_eq!(out.detection, Detection::None);
        out.dynamic_instructions
    }

    /// `d` with its timestamp cleared, and the timestamp.
    fn untimed(d: Detection) -> (Detection, u64) {
        match d {
            Detection::None => (d, 0),
            Detection::Trap { at } => (Detection::Trap { at: 0 }, at),
            Detection::Due {
                at,
                pipeline_suspected,
            } => (
                Detection::Due {
                    at: 0,
                    pipeline_suspected,
                },
                at,
            ),
            Detection::MemFault { at } => (Detection::MemFault { at: 0 }, at),
            Detection::Hang { at } => (Detection::Hang { at: 0 }, at),
        }
    }

    /// Check a fast trial against the reference run that left `mem`: the
    /// same error, detection and final memory. A converged trial promises
    /// golden memory (for `Protection::None` masked trials, the
    /// reference's). A confined trial (rule 4) detects the reference's
    /// event at its own, no later count, and its memory equals the
    /// reference's outside the words other warps write.
    fn assert_matches_reference(
        engine: &CampaignEngine,
        cap: &GoldenCapture,
        fast: &FastTrial,
        reference: Result<crate::exec::ExecOutcome, ExecError>,
        mem: &GlobalMemory,
        what: &str,
    ) {
        let r = match reference {
            Ok(r) => r,
            Err(e) => return assert_eq!(fast.error, Some(e), "{what}"),
        };
        assert!(
            fast.error.is_none(),
            "{what}: fast errored, reference did not"
        );
        if fast.converged_early {
            assert_eq!(fast.detection, r.detection, "{what}");
            assert_eq!(r.detection, Detection::None, "{what}");
            assert_eq!(mem.words(), cap.mem.words(), "{what}");
        } else if fast.confined.is_some() {
            let ((fd, fat), (rd, rat)) = (untimed(fast.detection), untimed(r.detection));
            assert_eq!(fd, rd, "{what}");
            assert!(
                fat <= rat,
                "{what}: confined detection after the reference's"
            );
            assert!(engine.output_matches(fast, 0, mem.words()), "{what}");
        } else {
            assert_eq!(fast.detection, r.detection, "{what}");
            assert_eq!(fast.mem.words(), mem.words(), "{what}");
        }
    }

    #[test]
    fn golden_capture_matches_reference_executor() {
        let kernel = test_kernel();
        let launch = Launch::grid(1, 64);
        let mut ref_mem = GlobalMemory::new(256);
        let dynamic = classic_golden(&kernel, launch, &mut ref_mem);

        let initial = GlobalMemory::new(256);
        let (engine, cap) = capture_tier1(&kernel, launch, &initial, 4);
        assert_eq!(cap.detection, Detection::None);
        assert_eq!(cap.dynamic_instructions, dynamic);
        assert_eq!(cap.mem.words(), ref_mem.words());
        assert!(engine.snapshot_count() >= 2, "ladder has multiple rungs");
        assert_eq!(engine.golden_dynamic(), dynamic);
    }

    #[test]
    fn fast_trials_match_reference_executor() {
        let kernel = test_kernel();
        let launch = Launch::grid(1, 64);
        let initial = GlobalMemory::new(256);
        let (engine, cap) = capture_tier1(&kernel, launch, &initial, 3);
        let fuel = cap.dynamic_instructions * 8 + 10_000;

        let eligible = cap.eligible_orig;
        assert!(eligible > 0);
        let mut confined = 0;
        for idx in 0..eligible.min(24) {
            for lane in [0u32, 5, 31] {
                let fault = FaultSpec::single_bit(idx, lane, 9);
                let fast = engine.run_trial(fault, fuel, None);

                let mut mem = GlobalMemory::new(256);
                let exec = Executor {
                    config: ExecConfig {
                        fault: Some(fault),
                        cta_limit: Some(1),
                        fuel: Some(fuel),
                        ..ExecConfig::default()
                    },
                };
                let reference = exec.run(&kernel, launch, &mut mem);
                let what = format!("idx {idx} lane {lane}");
                assert_matches_reference(&engine, &cap, &fast, reference, &mem, &what);
                confined += u32::from(fast.confined.is_some());
            }
        }
        assert!(
            confined > 0,
            "strikes in warp 0 confine while warp 1 is live"
        );
    }

    #[test]
    fn tier2_capture_and_trials_match_tier1() {
        let kernel = test_kernel();
        let launch = Launch::grid(1, 64);
        let initial = GlobalMemory::new(256);
        let (e1, c1) = capture_tier1(&kernel, launch, &initial, 3);
        let cfg = ExecConfig {
            tier: ExecTier::Tier2,
            ..ExecConfig::default()
        };
        let (e2, c2) =
            CampaignEngine::capture_config(&kernel, launch, Protection::None, &initial, 3, &cfg)
                .expect("tier2 capture");
        assert_eq!(e2.tier(), ExecTier::Tier2);
        assert!(
            e2.fused_pairs() > 0,
            "the test kernel has fusable adjacent ops"
        );
        assert_eq!(c1.dynamic_instructions, c2.dynamic_instructions);
        assert_eq!(c1.eligible_orig, c2.eligible_orig);
        assert_eq!(c1.eligible_shadow, c2.eligible_shadow);
        assert_eq!(c1.mem.words(), c2.mem.words());
        assert_eq!(e1.snapshot_count(), e2.snapshot_count());

        let fuel = c1.dynamic_instructions * 8 + 10_000;
        for idx in 0..c1.eligible_orig.min(32) {
            for lane in [0u32, 7, 31] {
                let fault = FaultSpec::single_bit(idx, lane, 13);
                let t1 = e1.run_trial(fault, fuel, None);
                let t2 = e2.run_trial(fault, fuel, None);
                assert_eq!(t1.detection, t2.detection, "idx {idx} lane {lane}");
                assert_eq!(t1.error, t2.error, "idx {idx} lane {lane}");
                assert_eq!(
                    t1.converged_early, t2.converged_early,
                    "idx {idx} lane {lane}"
                );
                assert_eq!(t1.resumed_from, t2.resumed_from, "idx {idx} lane {lane}");
                assert_eq!(t1.executed, t2.executed, "idx {idx} lane {lane}");
                assert_eq!(t1.mem.words(), t2.mem.words(), "idx {idx} lane {lane}");
            }
        }
    }

    #[test]
    fn trials_resume_past_epoch_zero() {
        let kernel = test_kernel();
        let launch = Launch::grid(1, 64);
        let initial = GlobalMemory::new(256);
        let (engine, cap) = capture_tier1(&kernel, launch, &initial, 2);
        let fuel = cap.dynamic_instructions * 8 + 10_000;
        // A late injection site must resume from a later rung, executing
        // fewer instructions than the full golden run.
        let fault = FaultSpec::single_bit(cap.eligible_orig - 1, 0, 0);
        let t = engine.run_trial(fault, fuel, None);
        assert!(t.resumed_from > 0, "late trial resumed from epoch 0");
        assert!(t.executed < cap.dynamic_instructions);
    }

    /// Two warps of 32 threads: warp 1 exits at once, warp 0 accumulates
    /// `tid*tid` over 100 iterations (about seven rounds) and stores it to
    /// `global[tid]`. Every round after the first ends with a boundary
    /// before the finished warp while warp 0 is still live.
    fn lone_warp_kernel() -> Kernel {
        let mut b = KernelBuilder::new("lonewarp");
        b.push(Op::S2R {
            d: Reg(0),
            sr: SpecialReg::TidX,
        });
        b.push(Op::SetP {
            p: Pred(0),
            cmp: CmpOp::Ge,
            ty: CmpTy::I32,
            a: Reg(0),
            b: Src::Imm(32),
        });
        b.push_instr(swapcodes_isa::Instr::guarded(Op::Exit, Pred(0), true));
        b.push(Op::Mov {
            d: Reg(1),
            a: Src::Imm(0),
        });
        b.push(Op::Mov {
            d: Reg(3),
            a: Src::Imm(100),
        });
        let top = b.label();
        b.bind(top);
        b.push(Op::IMad {
            d: Reg(1),
            a: Reg(0),
            b: Reg(0),
            c: Reg(1),
        });
        b.push(Op::ISub {
            d: Reg(3),
            a: Reg(3),
            b: Src::Imm(1),
        });
        b.push(Op::SetP {
            p: Pred(1),
            cmp: CmpOp::Gt,
            ty: CmpTy::I32,
            a: Reg(3),
            b: Src::Imm(0),
        });
        b.branch_if(top, Pred(1), true);
        store_and_exit(&mut b, 1);
        b.finish()
    }

    /// Rungs land at every warp boundary, so trials resume partway through
    /// a round: with the next warp still to run (two live warps), and with
    /// only a finished warp left while an earlier one is live, where the
    /// round's progress must carry over or the round-end deadlock check
    /// fires. Every trial must end exactly as the reference executor's,
    /// on both tiers.
    #[test]
    fn trials_resume_partial_rounds() {
        let launch = Launch::grid(1, 64);
        for (name, kernel) in [
            ("snaptest", test_kernel()),
            ("lonewarp", lone_warp_kernel()),
        ] {
            for tier in [ExecTier::Tier1, ExecTier::Tier2] {
                let cfg = ExecConfig {
                    tier,
                    ..ExecConfig::default()
                };
                let initial = GlobalMemory::new(256);
                let (engine, cap) = CampaignEngine::capture_config(
                    &kernel,
                    launch,
                    Protection::None,
                    &initial,
                    1,
                    &cfg,
                )
                .expect("capture");
                let fuel = cap.dynamic_instructions * 8 + 10_000;
                let transients = (0..cap.eligible_orig).map(|i| FaultSpec::single_bit(i, 3, 7));
                let controls = (0..cap.dynamic_instructions).step_by(5).map(|at| {
                    FaultSpec::try_control(at, 3, ControlTarget::SchedulerSlot, 0b10)
                        .expect("valid control spec")
                });
                let mut partial = 0;
                for fault in transients.chain(controls) {
                    let rung = &engine.ladder.snapshots[engine.resume_rung(&fault)];
                    partial += u32::from(rung.sched.next > 0);
                    let fast = engine.run_trial(fault, fuel, None);
                    let mut mem = GlobalMemory::new(256);
                    let exec = Executor {
                        config: ExecConfig {
                            fault: Some(fault),
                            cta_limit: Some(1),
                            fuel: Some(fuel),
                            ..ExecConfig::default()
                        },
                    };
                    let reference = exec.run(&kernel, launch, &mut mem);
                    let what = format!("{name} {tier} {fault:?}");
                    assert_matches_reference(&engine, &cap, &fast, reference, &mem, &what);
                }
                assert!(partial > 0, "{name} {tier}: no trial resumed mid-round");
            }
        }
    }

    /// Two warps: warp 1 spins on the flag word `global[0]` until warp 0
    /// sets it after a 100-iteration countdown. Each spin is four
    /// instructions, so warp 1 stands at the loop top with the same live
    /// state after every quantum but its first: golden holds the same warp
    /// state before and after warp 1's turn, 64 instructions apart.
    fn spin_kernel() -> Kernel {
        let mut b = KernelBuilder::new("spin");
        b.push(Op::S2R {
            d: Reg(0),
            sr: SpecialReg::TidX,
        });
        b.push(Op::SetP {
            p: Pred(0),
            cmp: CmpOp::Ge,
            ty: CmpTy::I32,
            a: Reg(0),
            b: Src::Imm(32),
        });
        b.push(Op::Mov {
            d: Reg(5),
            a: Src::Imm(0),
        });
        let spin = b.label();
        b.branch_if(spin, Pred(0), true);
        b.push(Op::Mov {
            d: Reg(3),
            a: Src::Imm(100),
        });
        let top = b.label();
        b.bind(top);
        b.push(Op::ISub {
            d: Reg(3),
            a: Reg(3),
            b: Src::Imm(1),
        });
        b.push(Op::SetP {
            p: Pred(1),
            cmp: CmpOp::Gt,
            ty: CmpTy::I32,
            a: Reg(3),
            b: Src::Imm(0),
        });
        b.branch_if(top, Pred(1), true);
        b.push(Op::Mov {
            d: Reg(6),
            a: Src::Imm(1),
        });
        b.push(Op::St {
            space: MemSpace::Global,
            addr: Reg(5),
            offset: 0,
            v: Reg(6),
            width: swapcodes_isa::MemWidth::W32,
        });
        b.push(Op::Exit);
        b.bind(spin);
        b.push(Op::Ld {
            d: Reg(7),
            space: MemSpace::Global,
            addr: Reg(5),
            offset: 0,
            width: swapcodes_isa::MemWidth::W32,
        });
        b.push(Op::SetP {
            p: Pred(2),
            cmp: CmpOp::Eq,
            ty: CmpTy::I32,
            a: Reg(7),
            b: Src::Imm(0),
        });
        b.push(Op::Mov {
            d: Reg(8),
            a: Src::Imm(0),
        });
        b.branch_if(spin, Pred(2), true);
        b.push(Op::Exit);
        b.finish()
    }

    /// The scheduler position is part of the matched state (rule 2). After
    /// a strike on a dead predicate bit, a trial standing before warp 1's
    /// turn has the warp state golden has after it, at a count 64 higher; a
    /// match there would shift the trial's finishing count down by 64. With
    /// fuel one short of the golden length every trial hangs, as the
    /// reference does, and none may exit early.
    #[test]
    fn convergence_matches_the_scheduler_position() {
        let kernel = spin_kernel();
        let launch = Launch::grid(1, 64);
        let initial = GlobalMemory::new(64);
        for tier in [ExecTier::Tier1, ExecTier::Tier2] {
            let cfg = ExecConfig {
                tier,
                ..ExecConfig::default()
            };
            let (engine, cap) = CampaignEngine::capture_config(
                &kernel,
                launch,
                Protection::None,
                &initial,
                1,
                &cfg,
            )
            .expect("capture");
            assert!(!engine.warp_independent(), "warp 1 reads warp 0's flag");
            let mut converged = 0;
            for fuel in [cap.dynamic_instructions * 8, cap.dynamic_instructions - 1] {
                for at in 0..cap.dynamic_instructions {
                    let fault = FaultSpec::try_control(at, 0, ControlTarget::Predicate, 0b1000)
                        .expect("valid control spec");
                    let fast = engine.run_trial(fault, fuel, None);
                    converged += u32::from(fast.converged_early);
                    let mut mem = GlobalMemory::new(64);
                    let exec = Executor {
                        config: ExecConfig {
                            fault: Some(fault),
                            cta_limit: Some(1),
                            fuel: Some(fuel),
                            ..ExecConfig::default()
                        },
                    };
                    let reference = exec.run(&kernel, launch, &mut mem);
                    let what = format!("{tier} fuel {fuel} @{at}");
                    assert_matches_reference(&engine, &cap, &fast, reference, &mem, &what);
                }
            }
            assert!(converged > 0, "{tier}: dead-bit strikes converge");
        }
    }

    /// `output_matches` compares page slices; it must agree with the
    /// per-word definition (equal, or, for a confined trial, written by
    /// another warp in golden) on ranges that start and end inside pages,
    /// against the golden image and against copies with one word changed,
    /// including confined trials whose other warp never wrote its output.
    #[test]
    fn output_matches_agrees_with_the_per_word_definition() {
        let kernel = test_kernel();
        let launch = Launch::grid(1, 64);
        let cfg = ExecConfig {
            cow_page_words: 4,
            ..ExecConfig::default()
        };
        let initial = GlobalMemory::new(256);
        let (engine, cap) =
            CampaignEngine::capture_config(&kernel, launch, Protection::None, &initial, 3, &cfg)
                .expect("capture");
        let log = engine.ladder.access.as_ref().expect("warp-independent");
        let golden = cap.mem.words();
        let fuel = cap.dynamic_instructions * 8 + 10_000;
        let mut foreign = 0;
        for idx in 0..cap.eligible_orig.min(24) {
            let t = engine.run_trial(FaultSpec::single_bit(idx, 5, 9), fuel, None);
            for (start, n) in [(0usize, 64usize), (3, 29), (30, 5), (32, 32), (7, 0)] {
                let addr = 4 * start as u32;
                let out: Vec<u32> = (0..n).map(|i| t.mem.read(addr + 4 * i as u32)).collect();
                let base = golden[start..start + n].to_vec();
                let mut images = vec![base.clone()];
                for i in [0, n / 2, n.saturating_sub(1)]
                    .into_iter()
                    .filter(|&i| i < n)
                {
                    let mut g = base.clone();
                    g[i] ^= 1;
                    images.push(g);
                }
                for g in images {
                    let per_word =
                        out.iter()
                            .zip(&g)
                            .zip((addr..).step_by(4))
                            .all(|((o, g), a)| {
                                o == g || t.confined.is_some_and(|wid| log.foreign_write(a, wid))
                            });
                    assert_eq!(
                        engine.output_matches(&t, addr, &g),
                        per_word,
                        "idx {idx} words {start}+{n}"
                    );
                    foreign += u32::from(per_word && out != g);
                }
            }
        }
        assert!(foreign > 0, "a confined trial leaves another warp's words");
    }

    /// Every control-state target, across a spread of delivery points,
    /// matches the reference executor outcome-for-outcome on the fast path
    /// — including trials whose control state diverges from golden (which
    /// must not early-exit Masked) and trials that deadlock (which must
    /// land in structured hang/trap accounting, never panic).
    #[test]
    fn control_fault_trials_match_reference_executor() {
        let kernel = test_kernel();
        let launch = Launch::grid(1, 64);
        let initial = GlobalMemory::new(256);
        let (engine, cap) = capture_tier1(&kernel, launch, &initial, 3);
        let fuel = cap.dynamic_instructions * 8 + 10_000;
        let targets = [
            (ControlTarget::Predicate, 0b10u64),
            (ControlTarget::ActiveMask, 0x0000_FF00),
            (ControlTarget::Barrier, 0),
            (ControlTarget::SchedulerSlot, 0b101),
        ];
        let step = (cap.dynamic_instructions / 13).max(1);
        for (ct, mask) in targets {
            for at in (0..cap.dynamic_instructions).step_by(step as usize) {
                let fault = FaultSpec::try_control(at, 3, ct, mask).expect("valid control spec");
                let fast = engine.run_trial(fault, fuel, None);

                let mut mem = GlobalMemory::new(256);
                let exec = Executor {
                    config: ExecConfig {
                        fault: Some(fault),
                        cta_limit: Some(1),
                        fuel: Some(fuel),
                        ..ExecConfig::default()
                    },
                };
                let reference = exec.run(&kernel, launch, &mut mem);
                let what = format!("{ct:?}@{at}");
                assert_matches_reference(&engine, &cap, &fast, reference, &mem, &what);
            }
        }
    }

    /// Control faults execute identically through the tier-2 threaded-code
    /// buffer: fused superinstructions and superblock walks must drop to
    /// exact stepping across the delivery point.
    #[test]
    fn tier2_control_fault_trials_match_tier1() {
        let kernel = test_kernel();
        let launch = Launch::grid(1, 64);
        let initial = GlobalMemory::new(256);
        let (e1, c1) = capture_tier1(&kernel, launch, &initial, 3);
        let cfg = ExecConfig {
            tier: ExecTier::Tier2,
            ..ExecConfig::default()
        };
        let (e2, _) =
            CampaignEngine::capture_config(&kernel, launch, Protection::None, &initial, 3, &cfg)
                .expect("tier2 capture");
        let fuel = c1.dynamic_instructions * 8 + 10_000;
        let targets = [
            (ControlTarget::Predicate, 0b11u64),
            (ControlTarget::ActiveMask, 0xF0F0_F0F0),
            (ControlTarget::Barrier, 0),
            (ControlTarget::SchedulerSlot, 0b110),
        ];
        let step = (c1.dynamic_instructions / 17).max(1);
        for (ct, mask) in targets {
            for at in (0..c1.dynamic_instructions).step_by(step as usize) {
                let fault = FaultSpec::try_control(at, 1, ct, mask).expect("valid control spec");
                let t1 = e1.run_trial(fault, fuel, None);
                let t2 = e2.run_trial(fault, fuel, None);
                assert_eq!(t1.detection, t2.detection, "{ct:?}@{at}");
                assert_eq!(t1.error, t2.error, "{ct:?}@{at}");
                assert_eq!(t1.converged_early, t2.converged_early, "{ct:?}@{at}");
                assert_eq!(t1.executed, t2.executed, "{ct:?}@{at}");
                assert_eq!(t1.mem.words(), t2.mem.words(), "{ct:?}@{at}");
            }
        }
    }

    /// Run `fault` on `kernel` (one warp) on both tiers, with a rung every
    /// round top, and check that the trial is not cut short by convergence
    /// and ends exactly as the reference does, with corrupted output.
    fn assert_split_strike_runs(kernel: &Kernel, fault: FaultSpec) {
        let launch = Launch::grid(1, 32);
        let initial = GlobalMemory::new(128);
        for tier in [ExecTier::Tier1, ExecTier::Tier2] {
            let cfg = ExecConfig {
                tier,
                ..ExecConfig::default()
            };
            let (engine, cap) =
                CampaignEngine::capture_config(kernel, launch, Protection::None, &initial, 8, &cfg)
                    .expect("capture");
            assert!(
                engine
                    .ladder
                    .snapshots
                    .iter()
                    .any(|s| s.warps[0].frags.len() == 2),
                "a rung lands while the warp is split"
            );
            let fuel = cap.dynamic_instructions * 8 + 10_000;
            let fast = engine.run_trial(fault, fuel, None);
            let mut mem = GlobalMemory::new(128);
            let exec = Executor {
                config: ExecConfig {
                    fault: Some(fault),
                    cta_limit: Some(1),
                    fuel: Some(fuel),
                    ..ExecConfig::default()
                },
            };
            let r = exec.run(kernel, launch, &mut mem).expect("reference runs");
            assert!(!fast.converged_early, "{tier}: the struck value is read");
            assert_eq!(fast.detection, r.detection, "{tier}");
            assert_eq!(fast.mem.words(), mem.words(), "{tier}");
            assert_ne!(mem.words(), cap.mem.words(), "the strike reaches memory");
        }
    }

    /// Push `R0 = tid; R9 = tid + 1000; P0 = tid < 16; @!P0 BRA upper`, then
    /// a 40-iteration countdown loop for lanes 0–15 — long enough that rungs
    /// land while lanes 16–31 wait at `upper`. Returns the `upper` label.
    fn split_prologue(b: &mut KernelBuilder) -> swapcodes_isa::Label {
        b.push(Op::S2R {
            d: Reg(0),
            sr: SpecialReg::TidX,
        });
        b.push(Op::IAdd {
            d: Reg(9),
            a: Reg(0),
            b: Src::Imm(1000),
        });
        b.push(Op::SetP {
            p: Pred(0),
            cmp: CmpOp::Lt,
            ty: CmpTy::I32,
            a: Reg(0),
            b: Src::Imm(16),
        });
        let upper = b.label();
        b.branch_if(upper, Pred(0), false);
        b.push(Op::Mov {
            d: Reg(3),
            a: Src::Imm(40),
        });
        let top = b.label();
        b.bind(top);
        b.push(Op::ISub {
            d: Reg(3),
            a: Reg(3),
            b: Src::Imm(1),
        });
        b.push(Op::SetP {
            p: Pred(1),
            cmp: CmpOp::Gt,
            ty: CmpTy::I32,
            a: Reg(3),
            b: Src::Imm(0),
        });
        b.branch_if(top, Pred(1), true);
        upper
    }

    /// Store `v` to `global[tid]` and exit.
    fn store_and_exit(b: &mut KernelBuilder, v: u8) {
        b.push(Op::Shl {
            d: Reg(2),
            a: Reg(0),
            b: Src::Imm(2),
        });
        b.push(Op::St {
            space: MemSpace::Global,
            addr: Reg(2),
            offset: 0,
            v: Reg(v),
            width: swapcodes_isa::MemWidth::W32,
        });
        b.push(Op::Exit);
    }

    /// Rule 1 under divergence: lanes 16–31 wait at a higher PC to store
    /// R9, which lanes 0–15 never read. A strike on R9 in lane 20 must keep
    /// the trial from converging: R9 is live at the *second* fragment's PC.
    #[test]
    fn live_compare_covers_every_fragment() {
        let mut b = KernelBuilder::new("twofrag");
        let upper = split_prologue(&mut b);
        store_and_exit(&mut b, 3);
        b.bind(upper);
        store_and_exit(&mut b, 9);
        // Eligible op 1 is the IADD that defines R9.
        assert_split_strike_runs(&b.finish(), FaultSpec::single_bit(1, 20, 3));
    }

    /// Rule 1's cross-lane reads: lanes 0–15 overwrite their own R9 and
    /// then shuffle R9 in from lanes 16–31, which sit in the other fragment
    /// and never read R9 themselves. The kill covers only the issuing
    /// fragment's lanes, so the SHFL source must stay live.
    #[test]
    fn live_compare_covers_cross_fragment_shuffles() {
        let mut b = KernelBuilder::new("shflfrag");
        let upper = split_prologue(&mut b);
        b.push(Op::Mov {
            d: Reg(9),
            a: Src::Imm(7),
        });
        b.push(Op::Shfl {
            d: Reg(6),
            a: Reg(9),
            mode: swapcodes_isa::ShflMode::Bfly(16),
        });
        store_and_exit(&mut b, 6);
        b.bind(upper);
        b.push(Op::Exit);
        assert_split_strike_runs(&b.finish(), FaultSpec::single_bit(1, 20, 3));
    }

    /// The capture's access log: warps that only touch their own words are
    /// independent; one warp reading a word another wrote is not.
    #[test]
    fn access_log_flags_cross_warp_words() {
        let mut log = AccessLog::new(4, 2);
        log.record(MemSpace::Global, 0, 0, true);
        log.record(MemSpace::Global, 0, 0, false);
        log.record(MemSpace::Global, 4, 1, true);
        log.record(MemSpace::Global, 8, 0, false);
        log.record(MemSpace::Global, 8, 1, false);
        log.record(MemSpace::Shared, 4, 0, false);
        log.record(MemSpace::Shared, 4, 3, false);
        assert!(!log.conflict, "shared reads and private writes commute");
        log.record(MemSpace::Shared, 4, 2, true);
        assert!(log.conflict, "a write to a word another warp reads");
        let mut log = AccessLog::new(1, 0);
        log.record(MemSpace::Global, 0, 5, false);
        log.record(MemSpace::Global, 0, 6, true);
        assert!(log.conflict, "a read then another warp's write");
    }

    /// Decode DUEs on an armed file follow the reference executor's
    /// first-DUE rule: the lowest lane that raised one, and within a lane
    /// the operand read first (`b` before `a` for shifts). R1 holds a
    /// double storage error on lane `storage` (`DueStorage`, not
    /// pipeline-suspected) and R2 a split codeword, data one bit off its
    /// check source, on lane `pipeline` (`DuePipeline`). The expectation is
    /// the per-lane walk of the reference: lanes in order, operands in read
    /// order, first `Due` wins.
    #[test]
    fn first_due_follows_lane_then_read_order() {
        let pk = PredecodedKernel::new(&test_kernel());
        let cases = [
            // Lane order beats read order: the shift reads R2 first, but
            // R1's lane is lower.
            (Alu2Kind::Shl, 3, 5, false),
            (Alu2Kind::Shr, 3, 5, false),
            (Alu2Kind::IAdd, 5, 3, true),
            (Alu2Kind::Shl, 5, 3, true),
            // One lane, both operands: read order decides.
            (Alu2Kind::Shl, 4, 4, true),
            (Alu2Kind::Shr, 4, 4, true),
            (Alu2Kind::IAdd, 4, 4, false),
        ];
        for (kind, storage, pipeline, suspected) in cases {
            let mut rf = WarpRegFile::new(8, Protection::SecDedDp);
            for lane in 0..32 {
                rf.write_full(lane, 1, 0x1000 + lane);
                rf.write_full(lane, 2, 3);
            }
            rf.flip_storage_bit(storage, 1, 0);
            rf.flip_storage_bit(storage, 1, 1);
            rf.write_split(pipeline, 2, 3 ^ 4, 3);
            let order = if matches!(kind, Alu2Kind::Shl | Alu2Kind::Shr) {
                [2, 1]
            } else {
                [1, 2]
            };
            let reference = (0..32).find_map(|lane| {
                order.iter().find_map(|&reg| match rf.read(lane, reg).1 {
                    RegFileEvent::Due { pipeline_suspected } => Some(pipeline_suspected),
                    _ => None,
                })
            });
            let what = format!("{kind:?} storage@{storage} pipeline@{pipeline}");
            assert_eq!(reference, Some(suspected), "{what}: reference rule");

            let mut ctx = FastCtx {
                pk: &pk,
                launch: Launch::grid(1, 32),
                cta: 0,
                fault: None,
                fuel: None,
                max_dynamic: u64::MAX,
                mem: CowMemory::new(Arc::new(vec![0; 64]), 16),
                shared: CowShared::new_zeroed(0),
                dyn_count: 1,
                eligible_orig: 0,
                eligible_shadow: 0,
                detection: Detection::None,
                pending_due: None,
                truncated: false,
                error: None,
                faults_applied: 0,
                control_delivered: false,
                cancel: None,
                access: Access::Off,
                trace: None,
            };
            let mut w = FastWarp {
                wid: 0,
                frags: vec![Fragment {
                    pc: 0,
                    mask: u32::MAX,
                }],
                rf: CowRegFile::owned(rf),
                preds: [0; 32],
                waiting_bar: false,
            };
            let mop = MicroOp {
                uop: UOp::Alu2 {
                    kind,
                    d: 4,
                    a: 1,
                    b: PSrc::Reg(2),
                },
                guard: Guard::Always,
                write: WriteMode::Full,
                eligible: None,
            };
            exec_uop(&mut ctx, &mut w, &mop, 0, u32::MAX, None);
            promote_due(&mut ctx);
            assert_eq!(
                ctx.detection,
                Detection::Due {
                    at: 1,
                    pipeline_suspected: suspected
                },
                "{what}"
            );
        }
    }

    /// Stuck-at defects re-assert on every eligible access, so the fast
    /// path must never prune their suffix via golden convergence; outcomes
    /// still match the reference executor exactly, on both tiers.
    #[test]
    fn stuck_at_trials_match_reference_and_never_converge() {
        let kernel = test_kernel();
        let launch = Launch::grid(1, 64);
        let initial = GlobalMemory::new(256);
        let (e1, cap) = capture_tier1(&kernel, launch, &initial, 3);
        let cfg = ExecConfig {
            tier: ExecTier::Tier2,
            ..ExecConfig::default()
        };
        let (e2, _) =
            CampaignEngine::capture_config(&kernel, launch, Protection::None, &initial, 3, &cfg)
                .expect("tier2 capture");
        let fuel = cap.dynamic_instructions * 8 + 10_000;
        for idx in (0..cap.eligible_orig.min(20)).step_by(3) {
            for (value, period) in [(true, 0u32), (false, 0), (true, 2)] {
                let fault =
                    FaultSpec::try_stuck_at(idx, 2, 5, value, 9, period, FaultTarget::Original)
                        .expect("valid stuck-at spec");
                let fast = e1.run_trial(fault, fuel, None);
                assert!(
                    !fast.converged_early,
                    "stuck-at trial must not early-exit (idx {idx})"
                );
                let t2 = e2.run_trial(fault, fuel, None);
                assert_eq!(
                    fast.detection, t2.detection,
                    "idx {idx} v={value} p={period}"
                );
                assert_eq!(fast.error, t2.error, "idx {idx} v={value} p={period}");
                assert_eq!(fast.mem.words(), t2.mem.words(), "idx {idx}");

                let mut mem = GlobalMemory::new(256);
                let exec = Executor {
                    config: ExecConfig {
                        fault: Some(fault),
                        cta_limit: Some(1),
                        fuel: Some(fuel),
                        ..ExecConfig::default()
                    },
                };
                match exec.run(&kernel, launch, &mut mem) {
                    Ok(r) => {
                        assert_eq!(fast.detection, r.detection, "idx {idx} v={value}");
                        assert_eq!(fast.mem.words(), mem.words(), "idx {idx} v={value}");
                    }
                    Err(e) => assert_eq!(fast.error, Some(e), "idx {idx} v={value}"),
                }
            }
        }
    }
}

#[cfg(test)]
mod pass_tests {
    use super::*;
    use crate::exec::Executor;
    use swapcodes_isa::{CmpOp, CmpTy, Instr, KernelBuilder, MemWidth, Op, Pred, Reg, Src};

    const MAX_DYNAMIC: u64 = 80_000_000;

    fn s2r(b: &mut KernelBuilder, d: u8, sr: SpecialReg) {
        b.push(Op::S2R { d: Reg(d), sr });
    }

    fn iadd(b: &mut KernelBuilder, d: u8, a: u8, imm: i32) {
        b.push(Op::IAdd {
            d: Reg(d),
            a: Reg(a),
            b: Src::Imm(imm),
        });
    }

    fn shl(b: &mut KernelBuilder, d: u8, a: u8, sh: i32) {
        b.push(Op::Shl {
            d: Reg(d),
            a: Reg(a),
            b: Src::Imm(sh),
        });
    }

    fn setp(b: &mut KernelBuilder, p: u8, cmp: CmpOp, a: u8, imm: i32) {
        b.push(Op::SetP {
            p: Pred(p),
            cmp,
            ty: CmpTy::I32,
            a: Reg(a),
            b: Src::Imm(imm),
        });
    }

    fn ld(space: MemSpace, d: u8, addr: u8, offset: i32) -> Op {
        Op::Ld {
            d: Reg(d),
            space,
            addr: Reg(addr),
            offset,
            width: MemWidth::W32,
        }
    }

    fn st(space: MemSpace, addr: u8, offset: i32, v: u8) -> Op {
        Op::St {
            space,
            addr: Reg(addr),
            offset,
            v: Reg(v),
            width: MemWidth::W32,
        }
    }

    /// R3 = the global thread index `CtaIdX * NTidX + TidX`, R4 = R3 * 4;
    /// R0 = `CtaIdX`, R1 = `TidX`.
    fn global_index(b: &mut KernelBuilder) {
        s2r(b, 0, SpecialReg::CtaIdX);
        s2r(b, 1, SpecialReg::TidX);
        s2r(b, 2, SpecialReg::NTidX);
        b.push(Op::IMad {
            d: Reg(3),
            a: Reg(0),
            b: Reg(2),
            c: Reg(1),
        });
        shl(b, 4, 3, 2);
    }

    /// Byte address of row 0 of [`chain_kernel`]'s 64-word rows; row `c + 1`
    /// follows row `c`.
    const ROWS: i32 = 0;
    /// Its divergent outputs, one word per global thread.
    const SPLIT: i32 = 2048;
    /// Its atomic counter.
    const COUNTER: i32 = 4096;
    /// Its strided region: 128 bytes per global thread.
    const STRIDED: i32 = 8192;

    /// CTAs of 64 threads that chain through global memory: thread `t` of
    /// CTA `c` loads row `c` (the previous CTA's output, row 0 the input)
    /// at an address computed from `CtaIdX`, and stores `row + c + 1` to
    /// row `c + 1`. Along the way: a guarded atomic on the first 8 lanes
    /// (exec mask ≠ fragment mask, and 8 serialized lanes), a load 128
    /// bytes apart per lane (32 segments) next to the coalesced row access
    /// (one segment per warp), and an if/else on the lane's parity whose
    /// result goes to its own word.
    fn chain_kernel() -> Kernel {
        let mut b = KernelBuilder::new("chain");
        global_index(&mut b);
        b.push(ld(MemSpace::Global, 5, 4, ROWS));
        b.push(Op::IAdd {
            d: Reg(6),
            a: Reg(5),
            b: Src::Reg(Reg(0)),
        });
        iadd(&mut b, 6, 6, 1);
        b.push(st(MemSpace::Global, 4, ROWS + 256, 6));
        // Guarded atomic: lanes 0..8 of warp 0 add CtaIdX + 1.
        setp(&mut b, 0, CmpOp::Lt, 1, 8);
        iadd(&mut b, 7, 0, 1);
        b.push(Op::Mov {
            d: Reg(8),
            a: Src::Imm(COUNTER),
        });
        b.push_instr(Instr::guarded(
            Op::AtomAdd {
                addr: Reg(8),
                offset: 0,
                v: Reg(7),
            },
            Pred(0),
            true,
        ));
        // Strided load: one 128-byte segment per lane.
        shl(&mut b, 9, 3, 7);
        b.push(ld(MemSpace::Global, 10, 9, STRIDED));
        // Divergent if/else on the lane's parity.
        b.push(Op::And {
            d: Reg(11),
            a: Reg(1),
            b: Src::Imm(1),
        });
        setp(&mut b, 1, CmpOp::Eq, 11, 0);
        let even = b.label();
        let join = b.label();
        b.branch_if(even, Pred(1), true);
        iadd(&mut b, 12, 10, 100);
        b.branch_to(join);
        b.bind(even);
        iadd(&mut b, 12, 5, 200);
        b.bind(join);
        b.push(st(MemSpace::Global, 4, SPLIT, 12));
        b.push(Op::Exit);
        b.finish()
    }

    /// 4 CTAs of 64 threads and [`chain_kernel`]'s input: row 0 holds
    /// `1000 + t`, the strided region `3 * g` at each thread's word.
    fn chain_setup() -> (Kernel, Launch, GlobalMemory) {
        let launch = Launch::grid(4, 64);
        let mut mem = GlobalMemory::new(STRIDED as usize + 256 * 128);
        for t in 0..64u32 {
            mem.write(ROWS as u32 + 4 * t, 1000 + t);
        }
        for g in 0..256u32 {
            mem.write(STRIDED as u32 + 128 * g, 3 * g);
        }
        (chain_kernel(), launch, mem)
    }

    /// Per CTA, each thread adds `TidX + 1` to its own shared word, which a
    /// fresh CTA's shared memory holds at 0, and after a barrier stores the
    /// other warp's word to its global word.
    fn shared_kernel() -> Kernel {
        let mut b = KernelBuilder::new("shared");
        global_index(&mut b);
        shl(&mut b, 5, 1, 2);
        b.push(ld(MemSpace::Shared, 6, 5, 0));
        b.push(Op::IAdd {
            d: Reg(6),
            a: Reg(6),
            b: Src::Reg(Reg(1)),
        });
        iadd(&mut b, 6, 6, 1);
        b.push(st(MemSpace::Shared, 5, 0, 6));
        b.push(Op::Bar);
        b.push(Op::Xor {
            d: Reg(7),
            a: Reg(1),
            b: Src::Imm(32),
        });
        shl(&mut b, 7, 7, 2);
        b.push(ld(MemSpace::Shared, 8, 7, 0));
        b.push(st(MemSpace::Global, 4, 0, 8));
        b.push(Op::Exit);
        b.finish()
    }

    /// Each thread stores its global index to its global word; threads
    /// with a global index of at least `split` first skip a barrier,
    /// which splits the one warp that straddles `split` at the barrier.
    fn barrier_kernel(split: i32) -> Kernel {
        let mut b = KernelBuilder::new("divbar");
        global_index(&mut b);
        b.push(st(MemSpace::Global, 4, 0, 3));
        setp(&mut b, 0, CmpOp::Ge, 3, split);
        let skip = b.label();
        b.branch_if(skip, Pred(0), true);
        b.push(Op::Bar);
        b.bind(skip);
        b.push(Op::Exit);
        b.finish()
    }

    /// Run `kernel` over the first `ctas` CTAs of `launch` from `mem` on the
    /// traced pass and on the reference executor with trace capture and
    /// the same `max_dynamic`, assert that they agree on everything the
    /// reference reports — its error, or its detection, dynamic count,
    /// truncation flag and every warp trace — and on the final memory, and
    /// return the pass's result and memory.
    fn pass_matches_executor(
        kernel: &Kernel,
        launch: Launch,
        mem: &GlobalMemory,
        ctas: u32,
        max_dynamic: u64,
    ) -> (Result<TracedPass, ExecError>, GlobalMemory) {
        let what = format!("{} over {ctas} CTAs, cap {max_dynamic}", kernel.name());
        let exec = Executor {
            config: ExecConfig {
                collect_trace: true,
                cta_limit: Some(ctas),
                max_dynamic,
                ..ExecConfig::default()
            },
        };
        let mut ref_mem = mem.clone();
        let reference = exec.run(kernel, launch, &mut ref_mem);
        let mut pass_mem = mem.clone();
        let pass = traced_pass(kernel, launch, &mut pass_mem, ctas, max_dynamic);
        assert_eq!(pass_mem.words(), ref_mem.words(), "{what}: final memory");
        match (&pass, reference) {
            (Err(e), Err(r)) => assert_eq!(*e, r, "{what}"),
            (Ok(p), Ok(r)) => {
                assert_eq!(p.detection, r.detection, "{what}");
                assert_eq!(p.dynamic_instructions, r.dynamic_instructions, "{what}");
                assert_eq!(p.truncated, r.truncated, "{what}");
                assert_eq!(p.traces, r.traces, "{what}");
            }
            (p, r) => panic!("{what}: pass {p:?}, reference {r:?}"),
        }
        (pass, pass_mem)
    }

    /// The entries warp `warp` of CTA `cta` recorded at kernel index
    /// `kidx`.
    fn entries_at(pass: &TracedPass, cta: u32, warp: u32, kidx: usize) -> Vec<TraceEntry> {
        let t = pass
            .traces
            .iter()
            .find(|t| t.cta == cta && t.warp == warp)
            .expect("warp traced");
        t.entries
            .iter()
            .filter(|e| e.kidx as usize == kidx)
            .copied()
            .collect()
    }

    #[test]
    fn traced_pass_matches_executor_across_ctas() {
        let (kernel, launch, mem) = chain_setup();
        for ctas in 1..=5 {
            let (pass, _) = pass_matches_executor(&kernel, launch, &mem, ctas, MAX_DYNAMIC);
            let pass = pass.expect("the chain runs");
            assert_eq!(pass.traces.len(), 2 * ctas.min(4) as usize);
        }
        let (pass, out) = pass_matches_executor(&kernel, launch, &mem, 4, MAX_DYNAMIC);
        let pass = pass.expect("the chain runs");
        // CTA c adds c + 1 to the row CTA c - 1 wrote: 1 + 2 + 3 + 4.
        for t in 0..64u32 {
            assert_eq!(out.read(ROWS as u32 + 4 * 256 + 4 * t), 1010 + t);
        }
        assert_eq!(out.read(COUNTER as u32), 8 * (1 + 2 + 3 + 4));
        let kidx = |op: fn(&Op) -> bool| {
            kernel
                .instrs()
                .iter()
                .position(|i| op(&i.op))
                .expect("kernel has the op")
        };
        let row_load = kidx(|op| matches!(op, Op::Ld { .. }));
        let atomic = kidx(|op| matches!(op, Op::AtomAdd { .. }));
        let strided = row_load
            + kernel.instrs()[row_load + 1..]
                .iter()
                .position(|i| matches!(i.op, Op::Ld { .. }))
                .expect("second load")
            + 1;
        for cta in 0..4 {
            let mask = |e: &[TraceEntry]| e.iter().map(|e| (e.mask, e.txns)).collect::<Vec<_>>();
            assert_eq!(mask(&entries_at(&pass, cta, 0, row_load)), [(u32::MAX, 1)]);
            assert_eq!(mask(&entries_at(&pass, cta, 0, strided)), [(u32::MAX, 32)]);
            // The guard leaves 8 of the fragment's 32 lanes executing.
            assert_eq!(mask(&entries_at(&pass, cta, 0, atomic)), [(0xFF, 8)]);
            assert_eq!(mask(&entries_at(&pass, cta, 1, atomic)), [(0, 0)]);
        }
        // The parity branch splits the warp into two fragments.
        let t = &pass.traces[0].entries;
        assert!(t.iter().any(|e| e.mask == 0x5555_5555));
        assert!(t.iter().any(|e| e.mask == 0xAAAA_AAAA));
    }

    #[test]
    fn traced_pass_resets_shared_memory_per_cta() {
        let kernel = shared_kernel();
        let launch = Launch {
            shared_words: 64,
            ..Launch::grid(3, 64)
        };
        let mem = GlobalMemory::new(3 * 64 * 4);
        let (pass, out) = pass_matches_executor(&kernel, launch, &mem, 3, MAX_DYNAMIC);
        let pass = pass.expect("the kernel runs");
        for g in 0..192u32 {
            assert_eq!(out.read(4 * g), ((g % 64) ^ 32) + 1, "thread {g}");
        }
        let shared_load = kernel
            .instrs()
            .iter()
            .position(|i| matches!(i.op, Op::Ld { .. }))
            .expect("shared load");
        assert_eq!(entries_at(&pass, 2, 1, shared_load)[0].txns, 1);
    }

    #[test]
    fn traced_pass_fails_and_halts_like_executor() {
        // Memory for 160 threads: warp 1 of CTA 2 stores out of bounds.
        let kernel = barrier_kernel(i32::MAX);
        let launch = Launch::grid(4, 64);
        let mem = GlobalMemory::new(160 * 4);
        let (pass, _) = pass_matches_executor(&kernel, launch, &mem, 4, MAX_DYNAMIC);
        assert!(
            matches!(pass, Err(ExecError::OutOfBoundsAccess { addr: 640, .. })),
            "{pass:?}"
        );
        // Global thread 130 splits warp 0 of CTA 2 at the barrier: the
        // watchdog's hang, after CTAs 0 and 1 completed.
        let mem = GlobalMemory::new(256 * 4);
        let (pass, _) = pass_matches_executor(&barrier_kernel(130), launch, &mem, 4, MAX_DYNAMIC);
        let pass = pass.expect("a hang is a detection, not an error");
        assert!(matches!(pass.detection, Detection::Hang { .. }));
        assert_eq!(pass.traces.len(), 4, "the hung CTA's traces are dropped");
    }

    #[test]
    fn traced_pass_truncates_like_executor() {
        let (kernel, launch, mem) = chain_setup();
        let (full, _) = pass_matches_executor(&kernel, launch, &mem, 4, MAX_DYNAMIC);
        let total = full.expect("the chain runs").dynamic_instructions;
        // Every cap from the first instruction to one past the end: cuts
        // inside each CTA and on the last instruction of one.
        let mut cut_ctas = Vec::new();
        for cap in 1..=total + 1 {
            let (pass, _) = pass_matches_executor(&kernel, launch, &mem, 4, cap);
            let pass = pass.expect("a cut is not an error");
            assert_eq!(pass.truncated, cap <= total, "cap {cap}");
            let done = pass.traces.len() / 2;
            if pass.truncated && !cut_ctas.contains(&done) {
                cut_ctas.push(done);
            }
        }
        assert_eq!(cut_ctas, [0, 1, 2, 3], "a cut in every CTA");
    }
}
