//! Cycle-level SM timing: replay functional traces against schedulers,
//! scoreboard, functional-unit throughput and memory bandwidth.
//!
//! The model captures the three first-order effects duplication has on a
//! SIMT core (§I of the paper): extra issue slots for checking code, lost
//! occupancy from shadow register pressure, and saturation of arithmetic
//! throughput from doubled operations — while remaining fast enough to sweep
//! every workload under every protection scheme.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use swapcodes_isa::{FuncUnit, Kernel, Op};

use crate::exec::{ExecConfig, ExecError, Executor, Launch, WarpTrace};
use crate::memory::GlobalMemory;
use crate::occupancy::{occupancy, GpuConfig, Occupancy};
use crate::regfile::Protection;
use crate::snapshot::{traced_pass, TracedPass};

/// Timing-model parameters (defaults approximate a P100-class SM; times in
/// quarter-cycles where noted).
#[derive(Debug, Clone)]
pub struct TimingConfig {
    /// Hardware limits.
    pub gpu: GpuConfig,
    /// Global-memory load-to-use latency in cycles.
    pub mem_latency: u32,
    /// Shared-memory load-to-use latency in cycles.
    pub shared_latency: u32,
    /// Quarter-cycles of DRAM bandwidth consumed per 128-byte transaction.
    pub txn_interval_qc: u64,
    /// Safety cap on simulated cycles per wave.
    pub max_cycles: u64,
}

impl Default for TimingConfig {
    fn default() -> Self {
        Self {
            gpu: GpuConfig {
                // The timing model simulates a single SM and scales waves
                // over the grid; occupancy limits stay P100-like.
                sms: 1,
                ..GpuConfig::default()
            },
            mem_latency: 380,
            shared_latency: 30,
            txn_interval_qc: 2,
            max_cycles: 200_000_000,
        }
    }
}

/// Per-SM issue interval of a functional unit, in quarter-cycles per warp
/// instruction (aggregated over the SM's lanes).
fn fu_interval_qc(fu: FuncUnit) -> u64 {
    match fu {
        FuncUnit::Int | FuncUnit::F32 | FuncUnit::Mov | FuncUnit::Ctrl => 2,
        FuncUnit::F64 | FuncUnit::Mem => 4,
        FuncUnit::Sfu => 8,
    }
}

/// Per-wave resource-pressure statistics from the cycle-level replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WaveStats {
    /// Cycles in which no scheduler issued anything (all warps stalled).
    pub idle_cycles: u64,
    /// Issue attempts rejected by the scoreboard (operands in flight).
    pub scoreboard_rejects: u64,
    /// Issue attempts rejected by a busy functional-unit port.
    pub fu_rejects: u64,
    /// Warp instructions issued per functional-unit class
    /// `[Int, F32, F64, Sfu, Mem, Ctrl, Mov]`.
    pub issued_per_fu: [u64; 7],
    /// Peak DRAM queueing delay observed by any access, in cycles.
    pub peak_mem_queue: u64,
}

impl WaveStats {
    /// Instructions issued per cycle over the wave.
    #[must_use]
    pub fn ipc(&self, wave_cycles: u64) -> f64 {
        if wave_cycles == 0 {
            0.0
        } else {
            self.issued_per_fu.iter().sum::<u64>() as f64 / wave_cycles as f64
        }
    }
}

/// Timing result for one kernel launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelTiming {
    /// Estimated cycles for the whole grid.
    pub cycles: u64,
    /// Cycles for one resident wave on one SM.
    pub wave_cycles: u64,
    /// Sequential wave count across the device in **milli-waves** — the
    /// canonical, fractional scaling semantics (a final 10%-full wave costs
    /// ~10% of a wave, since the timing model assumes the tail wave's CTAs
    /// spread across SMs). Stored as an integer so the struct stays `Eq`
    /// and serialization round-trips exactly. `cycles` is defined from this
    /// field: `cycles = round(wave_cycles * waves_milli / 1000)`; the
    /// whole-wave view is [`KernelTiming::waves`].
    pub waves_milli: u64,
    /// Occupancy achieved.
    pub occupancy: Occupancy,
    /// Warp instructions issued in the simulated wave.
    pub issued: u64,
    /// Dynamic warp instructions executed by the simulated wave.
    pub dynamic_instructions: u64,
    /// Resource-pressure statistics of the simulated wave.
    pub stats: WaveStats,
}

impl KernelTiming {
    /// Runtime relative to a baseline timing (the paper's y-axes).
    #[must_use]
    pub fn relative_to(&self, base: &KernelTiming) -> f64 {
        self.cycles as f64 / base.cycles as f64
    }

    /// Whole sequential waves (the fractional count rounded up) — the
    /// human-facing "how many times does the device refill" number.
    #[must_use]
    pub fn waves(&self) -> u64 {
        self.waves_milli.div_ceil(1000).max(1)
    }

    /// The fractional wave count `cycles` actually scales by.
    #[must_use]
    pub fn waves_fractional(&self) -> f64 {
        self.waves_milli as f64 / 1000.0
    }
}

/// Cycle cost of the detect-and-recover machinery, layered *on top of* a
/// kernel's fault-free timing rather than woven into the cycle-level replay:
/// recovery actions are rare (one detection per injected fault) so an
/// additive model keeps the replay untouched while still ranking policies by
/// their true cost — corrections are nearly free, warp replays cost a
/// rollback plus the re-executed instructions, and relaunches pay the whole
/// kernel again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryCostModel {
    /// Cycles to snapshot one warp's architectural state (register file
    /// drain to the checkpoint buffer).
    pub checkpoint_cycles: u64,
    /// Cycles to restore a warp from its checkpoint (pipeline flush plus
    /// register-file restore).
    pub rollback_cycles: u64,
    /// Cycles per re-executed instruction during replay (the warp replays
    /// solo, so it issues roughly one instruction per cycle).
    pub replay_cpi: u64,
    /// Fixed driver/runtime latency of a kernel relaunch, on top of paying
    /// the kernel's own cycles again.
    pub relaunch_latency: u64,
}

impl Default for RecoveryCostModel {
    fn default() -> Self {
        Self {
            checkpoint_cycles: 32,
            rollback_cycles: 64,
            replay_cpi: 1,
            relaunch_latency: 5_000,
        }
    }
}

impl RecoveryCostModel {
    /// Total recovery overhead in cycles for `stats` worth of recovery work
    /// on a kernel whose fault-free run costs `kernel_cycles`.
    #[must_use]
    pub fn overhead_cycles(
        &self,
        stats: &crate::recovery::RecoveryStats,
        kernel_cycles: u64,
    ) -> u64 {
        stats
            .checkpoints
            .saturating_mul(self.checkpoint_cycles)
            .saturating_add(stats.replays.saturating_mul(self.rollback_cycles))
            .saturating_add(stats.replayed_instructions.saturating_mul(self.replay_cpi))
            .saturating_add(
                u64::from(stats.relaunches)
                    .saturating_mul(kernel_cycles.saturating_add(self.relaunch_latency)),
            )
    }
}

/// Simulate `kernel` end to end: functional execution of one occupancy wave
/// on the campaign engine's exact-step core, capturing traces
/// ([`traced_pass`]), then cycle-level replay, then extrapolation over the
/// full grid. `mem` holds the final image on return.
///
/// # Errors
///
/// Returns [`ExecError::InvalidOp`] when the SM has no warp schedulers, the
/// kernel cannot fit on it at all, or one scheduler would hold more than 64
/// of the wave's warps, [`ExecError::Hang`] when the replay exceeds its
/// cycle budget ([`TimingConfig::max_cycles`]), and propagates any
/// functional-execution error.
pub fn simulate_kernel(
    kernel: &Kernel,
    launch: Launch,
    mem: &mut GlobalMemory,
    cfg: &TimingConfig,
) -> Result<KernelTiming, ExecError> {
    simulate_with(kernel, launch, mem, cfg, engine_pass, replay_wave, 0).map(|run| run.timing)
}

/// A timing run that keeps its warp traces ([`simulate_traced`]).
#[derive(Debug)]
pub struct TracedRun {
    /// The occupancy wave's timing, equal to [`simulate_kernel`]'s.
    pub timing: KernelTiming,
    /// Every executed warp's trace in CTA order: the wave's warps first,
    /// then those of any CTAs run past the wave.
    pub traces: Vec<WarpTrace>,
    /// How many leading `traces` belong to the wave.
    wave_warps: usize,
}

impl TracedRun {
    /// The occupancy wave's traces: the ones the replay timed.
    #[must_use]
    pub fn wave(&self) -> &[WarpTrace] {
        &self.traces[..self.wave_warps]
    }
}

/// [`simulate_kernel`], but executing at least the first `min_ctas` CTAs of
/// the grid (more when the wave is larger) and returning every warp trace.
/// Only the wave's traces are replayed, so `timing` equals
/// [`simulate_kernel`]'s whenever both runs succeed.
///
/// # Errors
///
/// Same contract as [`simulate_kernel`]; an execution error in a CTA past
/// the wave fails the whole run.
pub fn simulate_traced(
    kernel: &Kernel,
    launch: Launch,
    mem: &mut GlobalMemory,
    cfg: &TimingConfig,
    min_ctas: u32,
) -> Result<TracedRun, ExecError> {
    simulate_with(kernel, launch, mem, cfg, engine_pass, replay_wave, min_ctas)
}

/// The reference timing run, a differential-testing and perf-baseline
/// oracle sharing none of [`simulate_kernel`]'s execution code: the wave's
/// functional pass runs on the per-lane reference [`Executor`], and the
/// pre-optimization replay, retained verbatim, rebuilds its working sets
/// from scratch every cycle. Same results as [`simulate_kernel`] (asserted
/// by `reference_replay_matches_optimized` and the figure-cell
/// differential). Not part of the public API.
///
/// # Errors
///
/// Same contract as [`simulate_kernel`], except that the reference replay
/// takes any number of warps per scheduler.
#[doc(hidden)]
pub fn simulate_kernel_reference(
    kernel: &Kernel,
    launch: Launch,
    mem: &mut GlobalMemory,
    cfg: &TimingConfig,
) -> Result<KernelTiming, ExecError> {
    simulate_with(
        kernel,
        launch,
        mem,
        cfg,
        executor_pass,
        replay_wave_reference,
        0,
    )
    .map(|run| run.timing)
}

/// Signature shared by the production and reference functional passes: run
/// the first `ctas` CTAs fault-free, capturing every warp's trace.
type PassFn = fn(&Kernel, Launch, &mut GlobalMemory, u32) -> Result<TracedPass, ExecError>;

/// Signature shared by the optimized and reference wave-replay backends.
type ReplayFn = fn(&Kernel, &[WarpTrace], &TimingConfig) -> Result<(u64, WaveStats), ExecError>;

/// The production pass: the campaign engine's core, under the executor's
/// default dynamic-instruction cap.
fn engine_pass(
    kernel: &Kernel,
    launch: Launch,
    mem: &mut GlobalMemory,
    ctas: u32,
) -> Result<TracedPass, ExecError> {
    traced_pass(kernel, launch, mem, ctas, ExecConfig::default().max_dynamic)
}

/// The reference pass: the per-lane [`Executor`] with trace capture.
fn executor_pass(
    kernel: &Kernel,
    launch: Launch,
    mem: &mut GlobalMemory,
    ctas: u32,
) -> Result<TracedPass, ExecError> {
    let exec = Executor {
        config: ExecConfig {
            protection: Protection::None,
            collect_trace: true,
            cta_limit: Some(ctas),
            ..ExecConfig::default()
        },
    };
    let out = exec.run(kernel, launch, mem)?;
    Ok(TracedPass {
        detection: out.detection,
        dynamic_instructions: out.dynamic_instructions,
        truncated: out.truncated,
        traces: out.traces,
    })
}

fn simulate_with(
    kernel: &Kernel,
    launch: Launch,
    mem: &mut GlobalMemory,
    cfg: &TimingConfig,
    pass: PassFn,
    replay: ReplayFn,
    min_ctas: u32,
) -> Result<TracedRun, ExecError> {
    if cfg.gpu.schedulers == 0 {
        return Err(ExecError::InvalidOp {
            what: "the SM has no warp schedulers",
        });
    }
    let regs = kernel.register_count().max(1);
    let occ = occupancy(&cfg.gpu, regs, launch.threads_per_cta, launch.shared_words);
    if occ.ctas == 0 {
        return Err(ExecError::InvalidOp {
            what: "kernel cannot fit on the SM (zero-CTA occupancy)",
        });
    }
    let wave_ctas = occ.ctas.min(launch.ctas);

    let out = pass(
        kernel,
        launch,
        mem,
        wave_ctas.max(min_ctas.min(launch.ctas)),
    )?;
    // CTAs run one after another in index order, so the wave's warps are a
    // prefix of the traces.
    let wave_warps = out.traces.partition_point(|t| t.cta < wave_ctas);
    let wave = &out.traces[..wave_warps];
    let (wave_cycles, stats) = replay(kernel, wave, cfg)?;
    let issued = wave.iter().map(|t| t.entries.len() as u64).sum();
    // Fault-free, every counted instruction leaves one trace entry, so a
    // whole wave executed `issued`. A run that `max_dynamic` cut inside the
    // wave dropped that CTA's traces but stopped there: its own count is
    // the wave's.
    let whole_wave = wave_warps == (wave_ctas * launch.warps_per_cta()) as usize;
    let dynamic_instructions = if whole_wave {
        issued
    } else {
        out.dynamic_instructions
    };

    // The timing model simulates one SM and scales the simulated wave over
    // the grid fractionally: grids are assumed large enough (or the device
    // small enough) that per-SM residency matches the occupancy limit.
    // Relative runtimes between schemes are unaffected by the device size.
    let ctas_per_device_wave = f64::from(occ.ctas) * f64::from(cfg.gpu.sms);
    let waves = (f64::from(launch.ctas) / ctas_per_device_wave).max(1.0);
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let waves_milli = ((waves * 1000.0).round() as u64).max(1);
    // `cycles` derives from the stored milli-wave count (not the raw float)
    // so the two fields can never drift apart.
    let cycles = (wave_cycles * waves_milli + 500) / 1000;
    Ok(TracedRun {
        timing: KernelTiming {
            cycles,
            wave_cycles,
            waves_milli,
            occupancy: occ,
            issued,
            dynamic_instructions,
            stats,
        },
        traces: out.traces,
        wave_warps,
    })
}

struct TWarp<'a> {
    cta: u32,
    entries: &'a [crate::exec::TraceEntry],
    pos: usize,
    /// Cycle at which each register's pending write completes.
    ready: Vec<u64>,
    waiting_bar: bool,
    last_issue: u64,
}

impl TWarp<'_> {
    fn done(&self) -> bool {
        self.pos >= self.entries.len()
    }
}

/// Most source registers any op reads (`DFma`: three 64-bit pairs).
const MAX_SRCS: usize = 6;
/// Most destination registers any op writes (a 64-bit pair).
const MAX_DSTS: usize = 2;

/// What issuing a lowered instruction does beyond the scoreboard and
/// functional-unit port checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IssueKind {
    /// `Bar`: park the warp until its whole CTA arrives.
    Barrier,
    /// Completes a fixed [`TimedInstr::latency`] after issue.
    Fixed,
    /// Shared-memory access: DRAM-pipe queueing plus the shared latency.
    Shared,
    /// Global access or atomic: DRAM-pipe queueing plus jittered latency.
    Global,
}

/// One kernel instruction lowered to exactly what [`replay_wave`] reads,
/// derived from the same `Op::uses`/`defs`/`func_unit`/`dep_latency` calls
/// the reference replay makes on every probe.
#[derive(Debug, Clone, Copy)]
struct TimedInstr {
    srcs: [u8; MAX_SRCS],
    n_srcs: u8,
    dsts: [u8; MAX_DSTS],
    n_dsts: u8,
    /// Functional-unit slot, indexing `WaveStats::issued_per_fu`.
    fu: u8,
    interval_qc: u64,
    /// Completion latency of an [`IssueKind::Fixed`] instruction.
    latency: u64,
    kind: IssueKind,
}

impl TimedInstr {
    fn lower(instr: &swapcodes_isa::Instr) -> Self {
        let op = &instr.op;
        let uses = op.uses();
        let defs = op.defs();
        assert!(
            uses.len() <= MAX_SRCS && defs.len() <= MAX_DSTS,
            "{op:?} exceeds the replay's register-operand arrays"
        );
        let mut srcs = [0u8; MAX_SRCS];
        for (slot, r) in srcs.iter_mut().zip(&uses) {
            *slot = r.0;
        }
        let mut dsts = [0u8; MAX_DSTS];
        for (slot, r) in dsts.iter_mut().zip(&defs) {
            *slot = r.0;
        }
        let fu = op.func_unit();
        let kind = match op {
            Op::Bar => IssueKind::Barrier,
            Op::Ld {
                space: swapcodes_isa::MemSpace::Shared,
                ..
            }
            | Op::St {
                space: swapcodes_isa::MemSpace::Shared,
                ..
            } => IssueKind::Shared,
            _ if fu == FuncUnit::Mem => IssueKind::Global,
            _ => IssueKind::Fixed,
        };
        // End-to-end move propagation (Fig. 4): the swapped codeword is
        // copied register-file-internally without a datapath round trip.
        let latency = if instr.predicted && matches!(op, Op::Mov { .. }) {
            2
        } else {
            u64::from(op.dep_latency())
        };
        #[allow(clippy::cast_possible_truncation)] // bounded by the assert
        let (n_srcs, n_dsts) = (uses.len() as u8, defs.len() as u8);
        Self {
            srcs,
            n_srcs,
            dsts,
            n_dsts,
            fu: fu_slot(fu),
            interval_qc: fu_interval_qc(fu),
            latency,
            kind,
        }
    }

    fn srcs(&self) -> &[u8] {
        &self.srcs[..usize::from(self.n_srcs)]
    }

    fn dsts(&self) -> &[u8] {
        &self.dsts[..usize::from(self.n_dsts)]
    }
}

/// Index of a functional unit in `WaveStats::issued_per_fu`.
fn fu_slot(fu: FuncUnit) -> u8 {
    match fu {
        FuncUnit::Int => 0,
        FuncUnit::F32 => 1,
        FuncUnit::F64 => 2,
        FuncUnit::Sfu => 3,
        FuncUnit::Mem => 4,
        FuncUnit::Ctrl => 5,
        FuncUnit::Mov => 6,
    }
}

/// A warp of [`replay_wave`]. Its scoreboard lives in the replay's flat
/// `ready` buffer at `warp index * registers`.
struct ReplayWarp<'a> {
    /// Index of the warp's CTA among the wave's CTAs.
    cta: usize,
    /// Its scheduler, and its index among that scheduler's warps.
    sched: usize,
    lane: u32,
    entries: &'a [crate::exec::TraceEntry],
    pos: usize,
    /// Cycle at which every source of `entries[pos]` is ready. Only this
    /// warp's own issues write its scoreboard, and each of them advances
    /// `pos`, so the value stays exact until it is recomputed there.
    src_ready: u64,
    /// Position in its scheduler's issue order.
    slot: u32,
}

impl ReplayWarp<'_> {
    fn done(&self) -> bool {
        self.pos >= self.entries.len()
    }

    /// Advance past the current entry; returns whether the warp finished.
    /// Otherwise caches the next entry's source-ready cycle from `ready`,
    /// this warp's scoreboard.
    fn advance(&mut self, table: &[TimedInstr], ready: &[u64]) -> bool {
        self.pos += 1;
        let Some(entry) = self.entries.get(self.pos) else {
            return true;
        };
        self.src_ready = table[entry.kidx as usize]
            .srcs()
            .iter()
            .map(|&r| ready[usize::from(r)])
            .max()
            .unwrap_or(0);
        false
    }

    /// The lowered instruction of the next entry.
    fn next<'t>(&self, table: &'t [TimedInstr]) -> &'t TimedInstr {
        &table[self.entries[self.pos].kidx as usize]
    }
}

/// Most warps one scheduler of [`replay_wave`] holds: positions in its
/// issue order are the bits of a `u64`.
const MAX_SCHEDULER_WARPS: usize = 64;

/// Cycles ahead of the current one a scoreboard wake-up goes on the
/// wheel of [`Wakes`]; later ones go on its heap.
const WHEEL_CYCLES: u64 = 64;

/// When [`replay_wave`]'s stalled warps wake: a wheel of one bucket per
/// cycle for the next [`WHEEL_CYCLES`] cycles (ALU and shared-memory
/// latencies, nearly all stalls), a heap for the rest (global memory).
struct Wakes {
    schedulers: usize,
    /// Per scheduler, bucket `c % 64` holds the warps waking at cycle `c`,
    /// bit `i` for warp `i * schedulers + s` of scheduler `s`.
    wheel: Vec<[u64; 64]>,
    /// The buckets holding any warp.
    occupied: u64,
    /// `(cycle, warp)` wake-ups filed too far ahead for the wheel.
    far: BinaryHeap<Reverse<(u64, usize)>>,
}

impl Wakes {
    fn new(schedulers: usize) -> Self {
        Self {
            schedulers,
            wheel: vec![[0; 64]; schedulers],
            occupied: 0,
            far: BinaryHeap::new(),
        }
    }

    /// Wake warp `w` at its `src_ready`, filed during an earlier `cycle`.
    fn add(&mut self, cycle: u64, w: &ReplayWarp<'_>) {
        let at = w.src_ready;
        if at - cycle < WHEEL_CYCLES {
            let bucket = (at % WHEEL_CYCLES) as usize;
            self.wheel[w.sched][bucket] |= 1 << w.lane;
            self.occupied |= 1 << bucket;
        } else {
            self.far
                .push(Reverse((at, w.lane as usize * self.schedulers + w.sched)));
        }
    }

    /// Hand every warp waking by `cycle` to `wake`. Every cycle since the
    /// last call was either visited or held no wake-up.
    fn take(&mut self, cycle: u64, mut wake: impl FnMut(usize)) {
        while let Some(&Reverse((at, wi))) = self.far.peek() {
            if at > cycle {
                break;
            }
            self.far.pop();
            wake(wi);
        }
        let bucket = (cycle % WHEEL_CYCLES) as usize;
        if self.occupied & 1 << bucket == 0 {
            return;
        }
        self.occupied &= !(1 << bucket);
        for (s, wheel) in self.wheel.iter_mut().enumerate() {
            let mut due = std::mem::take(&mut wheel[bucket]);
            while due != 0 {
                wake(due.trailing_zeros() as usize * self.schedulers + s);
                due &= due - 1;
            }
        }
    }

    /// The earliest pending wake-up after `cycle` (`u64::MAX`: none).
    fn next(&self, cycle: u64) -> u64 {
        let ahead = self.occupied.rotate_right((cycle % WHEEL_CYCLES) as u32);
        let near = if ahead == 0 {
            u64::MAX
        } else {
            cycle + u64::from(ahead.trailing_zeros())
        };
        self.far
            .peek()
            .map_or(near, |&Reverse((at, _))| at.min(near))
    }
}

/// One warp scheduler of [`replay_wave`]: its greedy-then-oldest issue
/// order and, over positions in that order, what each unfinished, unparked
/// warp's next entry waits for. A finished or parked warp is in no mask.
#[derive(Default)]
struct Scheduler {
    /// Warp indices by `(Reverse(last_issue), index)`.
    order: Vec<usize>,
    /// Next entry is a barrier.
    barrier: u64,
    /// Scoreboard-ready, by the functional-unit slot of the next entry.
    ready: [u64; 7],
    /// The union of `ready`.
    ready_any: u64,
    /// Waiting for the scoreboard until the warp's `src_ready`.
    stalled: u64,
}

impl Scheduler {
    /// Put the warp at position `slot` into the mask its next entry `t`
    /// calls for at cycle `now`: barrier, ready on its port, or stalled
    /// until `src_ready`. Returns whether it stalled.
    fn file(&mut self, slot: u32, t: &TimedInstr, src_ready: u64, now: u64) -> bool {
        let bit = 1u64 << slot;
        if t.kind == IssueKind::Barrier {
            self.barrier |= bit;
        } else if src_ready <= now {
            self.ready[usize::from(t.fu)] |= bit;
            self.ready_any |= bit;
        } else {
            self.stalled |= bit;
            return true;
        }
        false
    }

    /// Move the stalled warp at position `slot` to its ready mask.
    fn wake(&mut self, slot: u32, t: &TimedInstr) {
        let bit = 1u64 << slot;
        self.stalled &= !bit;
        self.ready[usize::from(t.fu)] |= bit;
        self.ready_any |= bit;
    }

    /// The ready warps whose port is in `busy`.
    fn ready_on(&self, busy: u8) -> u64 {
        let (mut ports, mut on) = (busy, 0);
        while ports != 0 {
            on |= self.ready[ports.trailing_zeros() as usize];
            ports &= ports - 1;
        }
        on
    }

    /// Move the issuer at position `p`, which is in no mask, to the front:
    /// every warp below it moves up one, in the order and in the masks.
    fn move_to_front(&mut self, p: u32, warps: &mut [ReplayWarp<'_>]) {
        let below = (1u64 << p) - 1;
        let shift = |m: u64| m & !below | (m & below) << 1;
        self.barrier = shift(self.barrier);
        self.stalled = shift(self.stalled);
        self.ready_any = shift(self.ready_any);
        for m in &mut self.ready {
            *m = shift(*m);
        }
        let p = p as usize;
        let issuer = self.order[p];
        for q in (0..p).rev() {
            let wi = self.order[q];
            self.order[q + 1] = wi;
            warps[wi].slot += 1;
        }
        self.order[0] = issuer;
        warps[issuer].slot = 0;
    }
}

/// Every position from `from` up (none once `from` reaches 64).
fn from_bit(from: u32) -> u64 {
    u64::MAX.checked_shl(from).unwrap_or(0)
}

/// Replay one wave of traces on the SM model, returning the cycle count.
///
/// Cycle-for-cycle identical to [`replay_wave_reference`] (DESIGN §15):
/// the kernel is lowered once into a [`TimedInstr`] table, each warp
/// caches its next entry's source-ready cycle, the greedy-then-oldest
/// order is maintained by moving issuers to the front, and a live-warp
/// count replaces the all-done scan. The replay is event-driven: over each
/// scheduler's order it keeps masks of barrier, scoreboard-ready (per
/// port) and stalled warps, so a pick is the lowest set bit of `barrier |
/// ready on a free port`, and the reference's rejects up to that point are
/// popcounts. A stalled warp moves to its ready mask when the cycle
/// reaches its wake-up, and per-CTA counts decide barrier releases.
///
/// # Errors
///
/// [`ExecError::InvalidOp`] when a scheduler would hold more than 64
/// warps, [`ExecError::Hang`] past [`TimingConfig::max_cycles`].
#[allow(clippy::too_many_lines)]
fn replay_wave(
    kernel: &Kernel,
    traces: &[WarpTrace],
    cfg: &TimingConfig,
) -> Result<(u64, WaveStats), ExecError> {
    let mut stats = WaveStats::default();
    if traces.is_empty() {
        return Ok((0, stats));
    }
    // `simulate_with` rejects a GPU without schedulers.
    let schedulers = cfg.gpu.schedulers as usize;
    if traces.len().div_ceil(schedulers) > MAX_SCHEDULER_WARPS {
        return Err(ExecError::InvalidOp {
            what: "more than 64 warps per scheduler",
        });
    }
    let regs = kernel.register_count().max(1) as usize;
    let table: Vec<TimedInstr> = kernel.instrs().iter().map(TimedInstr::lower).collect();
    // Every scoreboard entry starts ready at cycle 0, so every cached
    // source-ready cycle does too.
    let mut ready = vec![0u64; traces.len() * regs];

    // Barrier bookkeeping per CTA: its warps, and how many of them are
    // unfinished and how many of those are parked.
    let mut ctas: Vec<u32> = traces.iter().map(|t| t.cta).collect();
    ctas.sort_unstable();
    ctas.dedup();
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); ctas.len()];
    let mut alive = vec![0usize; ctas.len()];
    let mut waiting = vec![0usize; ctas.len()];
    let mut warps: Vec<ReplayWarp<'_>> = Vec::with_capacity(traces.len());
    for (wi, t) in traces.iter().enumerate() {
        let cta = ctas.binary_search(&t.cta).expect("every CTA is listed");
        members[cta].push(wi);
        alive[cta] += usize::from(!t.entries.is_empty());
        #[allow(clippy::cast_possible_truncation)] // at most 64 per scheduler
        let lane = (wi / schedulers) as u32;
        warps.push(ReplayWarp {
            cta,
            sched: wi % schedulers,
            lane,
            entries: &t.entries,
            pos: 0,
            src_ready: 0,
            slot: lane,
        });
    }
    let mut live: usize = alive.iter().sum();
    // CTAs where a warp parked or finished: their barrier may release at
    // the top of the next cycle, and nothing else can release one.
    let mut recheck: Vec<usize> = Vec::new();

    // Each scheduler's order starts as index order, which is sorted while
    // every key is 0.
    let mut scheds: Vec<Scheduler> = (0..schedulers)
        .map(|s| Scheduler {
            order: (s..warps.len()).step_by(schedulers).collect(),
            ..Scheduler::default()
        })
        .collect();
    for w in &warps {
        if !w.done() {
            scheds[w.sched].file(w.slot, w.next(&table), w.src_ready, 0);
        }
    }
    let mut wakes = Wakes::new(schedulers);

    let mut fu_free_qc = [0u64; 7];
    let mut mem_pipe_qc = 0u64;
    let mut cycle: u64 = 0;

    while live > 0 {
        if cycle >= cfg.max_cycles {
            return Err(ExecError::Hang { steps: cycle });
        }

        // Barrier release: per CTA, all unfinished warps waiting.
        for c in recheck.drain(..) {
            if alive[c] == 0 || alive[c] != waiting[c] {
                continue;
            }
            waiting[c] = 0;
            for &wi in &members[c] {
                let w = &mut warps[wi];
                if w.done() {
                    continue;
                }
                // Retire the barrier entry.
                if w.advance(&table, &ready[wi * regs..(wi + 1) * regs]) {
                    live -= 1;
                    alive[c] -= 1;
                } else if scheds[w.sched].file(w.slot, w.next(&table), w.src_ready, cycle) {
                    wakes.add(cycle, w);
                }
            }
        }

        // Scoreboard wake-ups due by this cycle.
        wakes.take(cycle, |wi| {
            let w = &warps[wi];
            scheds[w.sched].wake(w.slot, w.next(&table));
        });

        let now_qc = cycle * 4;
        let mut free_ports = fu_free_qc
            .iter()
            .enumerate()
            .fold(0u8, |m, (f, &t)| m | u8::from(t <= now_qc) << f);
        let mut issued_any = false;

        for s in &mut scheds {
            // Greedy-then-oldest: the first warp in order that parks at a
            // barrier or is ready on a free port; after an issue, the next
            // one above it (dual dispatch). Every stalled or port-blocked
            // warp before the stop is a reference reject.
            let mut issuers = [0u32; 2];
            let mut issued_this_sched = 0usize;
            let mut from = 0u32;
            let mut on_busy = s.ready_on(!free_ports & 0x7F);
            loop {
                let on_free = s.ready_any & !on_busy;
                let window = from_bit(from);
                let picks = (s.barrier | on_free) & window;
                let p = picks.trailing_zeros();
                let passed = window & !from_bit(p);
                stats.scoreboard_rejects += u64::from((s.stalled & passed).count_ones());
                stats.fu_rejects += u64::from((on_busy & passed).count_ones());
                if picks == 0 {
                    break;
                }
                issued_any = true;
                let bit = 1u64 << p;
                let wi = s.order[p as usize];
                let w = &mut warps[wi];

                // Barrier: park (retired at release); the turn ends.
                if s.barrier & bit != 0 {
                    s.barrier &= !bit;
                    waiting[w.cta] += 1;
                    recheck.push(w.cta);
                    break;
                }

                // Issue.
                let entry = w.entries[w.pos];
                let t = w.next(&table);
                let fi = usize::from(t.fu);
                s.ready[fi] &= !bit;
                s.ready_any &= !bit;
                free_ports &= !(1 << fi);
                on_busy |= s.ready[fi];
                fu_free_qc[fi] = now_qc + t.interval_qc;
                stats.issued_per_fu[fi] += 1;
                let complete = if t.kind == IssueKind::Fixed {
                    cycle + t.latency
                } else {
                    // Bandwidth queueing for global transactions.
                    let txn_cost = u64::from(entry.txns) * cfg.txn_interval_qc;
                    mem_pipe_qc = mem_pipe_qc.max(now_qc) + txn_cost;
                    let queue_cycles = (mem_pipe_qc - now_qc) / 4;
                    stats.peak_mem_queue = stats.peak_mem_queue.max(queue_cycles);
                    let lat = if t.kind == IssueKind::Shared {
                        u64::from(cfg.shared_latency)
                    } else {
                        // DRAM bank/row variability: deterministic jitter
                        // of +/-25% around the base latency decorrelates
                        // warp wake-ups (a constant latency makes every
                        // warp convoy in lockstep forever, which no real
                        // memory system does).
                        let base = u64::from(cfg.mem_latency);
                        let h = (wi as u64)
                            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                            .wrapping_add((w.pos as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
                        let h = (h ^ (h >> 31)).wrapping_mul(0x94D0_49BB_1331_11EB);
                        base * 3 / 4 + (h >> 33) % (base / 2)
                    };
                    cycle + lat + queue_cycles
                };
                let warp_ready = &mut ready[wi * regs..(wi + 1) * regs];
                for &r in t.dsts() {
                    let slot = &mut warp_ready[usize::from(r)];
                    *slot = (*slot).max(complete);
                }
                w.advance(&table, warp_ready);
                issuers[issued_this_sched] = p;
                issued_this_sched += 1;
                if issued_this_sched >= 2 {
                    break; // dual dispatch per scheduler per cycle (Pascal)
                }
                from = p + 1;
            }
            if issued_this_sched == 0 {
                continue;
            }

            // Re-place the issuers now that the turn is over. At cycle 0
            // their keys stay 0 like everyone's, so the order is unchanged.
            // Later, they hold the largest key, `cycle`: move them to the
            // front, two same-cycle issuers by warp index, and rotate the
            // masks with the order.
            let at = if cycle > 0 {
                let [p0, p1] = issuers;
                s.move_to_front(p0, &mut warps);
                if issued_this_sched == 2 {
                    s.move_to_front(p1, &mut warps);
                    if s.order[1] < s.order[0] {
                        s.order.swap(0, 1);
                        warps[s.order[0]].slot = 0;
                        warps[s.order[1]].slot = 1;
                    }
                }
                [0, 1]
            } else {
                issuers
            };
            // An issuer's next chance is the next cycle. One that finished
            // may leave its CTA's other warps all parked.
            for &p in &at[..issued_this_sched] {
                let wi = s.order[p as usize];
                let w = &warps[wi];
                if w.done() {
                    live -= 1;
                    alive[w.cta] -= 1;
                    if waiting[w.cta] > 0 {
                        recheck.push(w.cta);
                    }
                } else if s.file(w.slot, w.next(&table), w.src_ready, cycle + 1) {
                    wakes.add(cycle, w);
                }
            }
        }

        if issued_any {
            cycle += 1;
            continue;
        }
        // Nothing issued or parked: every ready warp waits for a busy port
        // and every other unparked one for its scoreboard, so the next event
        // is the earliest wake-up or the earliest such port freeing.
        let mut next_event = wakes.next(cycle);
        for (f, &free_qc) in fu_free_qc.iter().enumerate() {
            if scheds.iter().any(|s| s.ready[f] != 0) {
                next_event = next_event.min(free_qc.div_ceil(4));
            }
        }
        if next_event != u64::MAX && next_event > cycle {
            stats.idle_cycles += next_event - cycle;
            cycle = next_event;
        } else {
            stats.idle_cycles += 1;
            cycle += 1;
        }
    }
    Ok((cycle, stats))
}

/// The seed-revision replay loop, kept bit-for-bit: allocates the CTA
/// list, barrier membership and scheduler order vectors anew every
/// cycle. `reference_replay_matches_optimized` pins the optimized
/// [`replay_wave`] to this behaviour; `perf_baseline` measures the
/// difference.
#[allow(clippy::too_many_lines)]
fn replay_wave_reference(
    kernel: &Kernel,
    traces: &[WarpTrace],
    cfg: &TimingConfig,
) -> Result<(u64, WaveStats), ExecError> {
    let mut stats = WaveStats::default();
    if traces.is_empty() {
        return Ok((0, stats));
    }
    let regs = kernel.register_count().max(1) as usize;
    let mut warps: Vec<TWarp<'_>> = traces
        .iter()
        .map(|t| TWarp {
            cta: t.cta,
            entries: &t.entries,
            pos: 0,
            ready: vec![0; regs],
            waiting_bar: false,
            last_issue: 0,
        })
        .collect();

    let schedulers = cfg.gpu.schedulers as usize;
    let mut fu_free_qc = [0u64; 7];
    let mut mem_pipe_qc = 0u64;
    let mut cycle: u64 = 0;

    let fu_idx = |fu: FuncUnit| match fu {
        FuncUnit::Int => 0,
        FuncUnit::F32 => 1,
        FuncUnit::F64 => 2,
        FuncUnit::Sfu => 3,
        FuncUnit::Mem => 4,
        FuncUnit::Ctrl => 5,
        FuncUnit::Mov => 6,
    };

    loop {
        if warps.iter().all(TWarp::done) {
            break;
        }
        if cycle >= cfg.max_cycles {
            return Err(ExecError::Hang { steps: cycle });
        }

        // Barrier release: per CTA, all unfinished warps waiting.
        let ctas: Vec<u32> = {
            let mut v: Vec<u32> = warps.iter().map(|w| w.cta).collect();
            v.dedup();
            v
        };
        for cta in ctas {
            let members: Vec<usize> = warps
                .iter()
                .enumerate()
                .filter(|(_, w)| w.cta == cta && !w.done())
                .map(|(i, _)| i)
                .collect();
            if !members.is_empty() && members.iter().all(|&i| warps[i].waiting_bar) {
                for i in members {
                    warps[i].waiting_bar = false;
                    warps[i].pos += 1; // retire the barrier entry
                }
            }
        }

        let now_qc = cycle * 4;
        let mut issued_any = false;
        let mut next_event = u64::MAX;

        for s in 0..schedulers {
            // Greedy-then-oldest: most recently issued first, then oldest.
            let mut order: Vec<usize> = (0..warps.len()).filter(|i| i % schedulers == s).collect();
            order.sort_by_key(|&i| std::cmp::Reverse(warps[i].last_issue));

            let mut issued_this_sched = 0u32;
            for &wi in &order {
                let w = &warps[wi];
                if w.done() || w.waiting_bar {
                    continue;
                }
                let entry = w.entries[w.pos];
                let instr = &kernel.instrs()[entry.kidx as usize];
                let op = &instr.op;

                // Barrier: mark waiting (retired at release).
                if matches!(op, Op::Bar) {
                    warps[wi].waiting_bar = true;
                    issued_any = true;
                    break;
                }

                // Scoreboard: all register sources ready (predicates,
                // guards included, are not scoreboarded).
                let mut src_ready = 0u64;
                for r in op.uses() {
                    src_ready = src_ready.max(w.ready[usize::from(r.0)]);
                }
                if src_ready > cycle {
                    next_event = next_event.min(src_ready);
                    stats.scoreboard_rejects += 1;
                    continue;
                }

                // Structural: functional unit issue port.
                let fu = op.func_unit();
                let fi = fu_idx(fu);
                if fu_free_qc[fi] > now_qc {
                    next_event = next_event.min(fu_free_qc[fi].div_ceil(4));
                    stats.fu_rejects += 1;
                    continue;
                }

                // Issue.
                fu_free_qc[fi] = now_qc + fu_interval_qc(fu);
                let mut complete = cycle + u64::from(op.dep_latency());
                if instr.predicted && matches!(op, Op::Mov { .. }) {
                    // End-to-end move propagation (Fig. 4): the swapped
                    // codeword is copied register-file-internally without a
                    // datapath round trip.
                    complete = cycle + 2;
                }
                stats.issued_per_fu[fi] += 1;
                if fu == FuncUnit::Mem {
                    // Bandwidth queueing for global transactions.
                    let txn_cost = u64::from(entry.txns) * cfg.txn_interval_qc;
                    mem_pipe_qc = mem_pipe_qc.max(now_qc) + txn_cost;
                    let queue_cycles = (mem_pipe_qc - now_qc) / 4;
                    stats.peak_mem_queue = stats.peak_mem_queue.max(queue_cycles);
                    let lat = match op {
                        Op::Ld {
                            space: swapcodes_isa::MemSpace::Shared,
                            ..
                        }
                        | Op::St {
                            space: swapcodes_isa::MemSpace::Shared,
                            ..
                        } => u64::from(cfg.shared_latency),
                        _ => {
                            // DRAM bank/row variability: deterministic jitter
                            // of +/-25% around the base latency decorrelates
                            // warp wake-ups (a constant latency makes every
                            // warp convoy in lockstep forever, which no real
                            // memory system does).
                            let base = u64::from(cfg.mem_latency);
                            let h = (wi as u64)
                                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                                .wrapping_add((w.pos as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
                            let h = (h ^ (h >> 31)).wrapping_mul(0x94D0_49BB_1331_11EB);
                            base * 3 / 4 + (h >> 33) % (base / 2)
                        }
                    };
                    complete = cycle + lat + queue_cycles;
                }
                let w = &mut warps[wi];
                for r in op.defs() {
                    let slot = &mut w.ready[usize::from(r.0)];
                    *slot = (*slot).max(complete);
                }
                w.pos += 1;
                w.last_issue = cycle;
                issued_any = true;
                issued_this_sched += 1;
                if issued_this_sched >= 2 {
                    break; // dual dispatch per scheduler per cycle (Pascal)
                }
            }
        }

        if issued_any {
            cycle += 1;
        } else if next_event != u64::MAX && next_event > cycle {
            stats.idle_cycles += next_event - cycle;
            cycle = next_event;
        } else {
            stats.idle_cycles += 1;
            cycle += 1;
        }
    }
    Ok((cycle, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use swapcodes_isa::{KernelBuilder, Reg, Src};

    fn trivial_kernel(arith: usize) -> Kernel {
        let mut k = KernelBuilder::new("t");
        for i in 0..arith {
            k.push(Op::IAdd {
                d: Reg((i % 8) as u8),
                a: Reg(((i + 1) % 8) as u8),
                b: Src::Imm(1),
            });
        }
        k.push(Op::Exit);
        k.finish()
    }

    #[test]
    fn more_work_takes_more_cycles() {
        let cfg = TimingConfig::default();
        let mut mem = GlobalMemory::new(64);
        let small = simulate_kernel(&trivial_kernel(16), Launch::grid(8, 128), &mut mem, &cfg)
            .expect("timing");
        let big = simulate_kernel(&trivial_kernel(160), Launch::grid(8, 128), &mut mem, &cfg)
            .expect("timing");
        assert!(big.cycles > small.cycles, "{small:?} vs {big:?}");
    }

    #[test]
    fn traced_run_past_the_wave_times_only_the_wave() {
        let cfg = TimingConfig::default();
        let k = trivial_kernel(32);
        let launch = Launch::grid(8, 1024);
        let timing = simulate_kernel(&k, launch, &mut GlobalMemory::new(64), &cfg).expect("timing");
        let wave = timing.occupancy.ctas as usize;
        assert!(wave < 8, "the test needs a wave smaller than the grid");
        let run = simulate_traced(&k, launch, &mut GlobalMemory::new(64), &cfg, 8).expect("timing");
        assert_eq!(run.timing, timing);
        let warps = launch.warps_per_cta() as usize;
        assert_eq!(run.wave().len(), wave * warps);
        assert_eq!(run.traces.len(), 8 * warps);
    }

    #[test]
    fn grid_scales_in_waves() {
        let cfg = TimingConfig::default();
        let mut mem = GlobalMemory::new(64);
        let k = trivial_kernel(32);
        let one = simulate_kernel(&k, Launch::grid(56, 256), &mut mem, &cfg).expect("timing");
        let many = simulate_kernel(&k, Launch::grid(56 * 32, 256), &mut mem, &cfg).expect("timing");
        assert!(many.waves() > one.waves());
        assert!(many.cycles >= one.cycles * 2);
    }

    #[test]
    fn fractional_milli_waves_are_the_canonical_scaling_semantics() {
        let cfg = TimingConfig::default();
        let mut mem = GlobalMemory::new(64);
        let k = trivial_kernel(32);
        // Probe the per-device-wave CTA capacity, then launch half a wave
        // beyond two full waves so the fractional count is ~2.5.
        let probe = simulate_kernel(&k, Launch::grid(1, 256), &mut mem, &cfg).expect("timing");
        let per_wave = probe.occupancy.ctas * cfg.gpu.sms;
        let launch = Launch::grid(2 * per_wave + per_wave / 2, 256);
        let t = simulate_kernel(&k, launch, &mut mem, &cfg).expect("timing");
        let frac = f64::from(launch.ctas) / f64::from(per_wave);
        assert_eq!(
            t.waves_milli,
            (frac * 1000.0).round() as u64,
            "waves_milli stores the fractional count"
        );
        assert_eq!(
            t.cycles,
            (t.wave_cycles * t.waves_milli + 500) / 1000,
            "cycles derive exactly from the stored milli-wave count"
        );
        assert_eq!(t.waves(), frac.ceil() as u64, "whole-wave view is ceiled");
        assert!((t.waves_fractional() - frac).abs() < 1e-3);
        // The documented bracket: strictly more than waves()-1 full waves,
        // at most waves() full waves — and a partial tail wave must not be
        // billed as a full one.
        assert!(t.cycles > t.wave_cycles * (t.waves() - 1));
        assert!(t.cycles < t.wave_cycles * t.waves());
    }

    #[test]
    fn dependent_chain_is_slower_than_independent() {
        let cfg = TimingConfig::default();
        let mut mem = GlobalMemory::new(64);
        // Dependent chain on one register.
        let mut k = KernelBuilder::new("chain");
        for _ in 0..64 {
            k.push(Op::IAdd {
                d: Reg(0),
                a: Reg(0),
                b: Src::Imm(1),
            });
        }
        k.push(Op::Exit);
        let chain =
            simulate_kernel(&k.finish(), Launch::grid(1, 32), &mut mem, &cfg).expect("timing");
        let indep = simulate_kernel(&trivial_kernel(64), Launch::grid(1, 32), &mut mem, &cfg)
            .expect("timing");
        assert!(chain.cycles > indep.cycles, "{chain:?} vs {indep:?}");
    }

    #[test]
    fn recovery_cost_ranks_policies_by_expense() {
        use crate::recovery::RecoveryStats;
        let m = RecoveryCostModel::default();
        let kernel_cycles = 10_000;
        let correct = RecoveryStats {
            checkpoints: 4,
            corrections: 1,
            ..RecoveryStats::default()
        };
        let replay = RecoveryStats {
            checkpoints: 4,
            replays: 1,
            replayed_instructions: 200,
            ..RecoveryStats::default()
        };
        let relaunch = RecoveryStats {
            checkpoints: 4,
            relaunches: 1,
            ..RecoveryStats::default()
        };
        let c = m.overhead_cycles(&correct, kernel_cycles);
        let p = m.overhead_cycles(&replay, kernel_cycles);
        let l = m.overhead_cycles(&relaunch, kernel_cycles);
        assert!(c < p && p < l, "{c} < {p} < {l} expected");
        // A relaunch always pays the kernel again.
        assert!(l > kernel_cycles);
        // No recovery work, no overhead.
        assert_eq!(
            m.overhead_cycles(&RecoveryStats::default(), kernel_cycles),
            0
        );
    }
}

#[cfg(test)]
mod stats_tests {
    use super::*;
    use swapcodes_isa::{KernelBuilder, MemSpace, MemWidth, Reg, SpecialReg, Src};

    #[test]
    fn stats_account_for_issued_work() {
        let mut k = KernelBuilder::new("mix");
        k.push(Op::S2R {
            d: Reg(0),
            sr: SpecialReg::TidX,
        });
        for i in 0..6u8 {
            k.push(Op::FAdd {
                d: Reg(1 + i),
                a: Reg(0),
                b: Src::Imm(0x3F80_0000),
            });
        }
        k.push(Op::Shl {
            d: Reg(7),
            a: Reg(0),
            b: Src::Imm(2),
        });
        k.push(Op::Ld {
            d: Reg(8),
            space: MemSpace::Global,
            addr: Reg(7),
            offset: 0,
            width: MemWidth::W32,
        });
        k.push(Op::Exit);
        let kernel = k.finish();
        let cfg = TimingConfig::default();
        let mut mem = GlobalMemory::new(4096);
        let t = simulate_kernel(&kernel, crate::exec::Launch::grid(2, 64), &mut mem, &cfg)
            .expect("timing");
        let total: u64 = t.stats.issued_per_fu.iter().sum();
        assert_eq!(total, t.issued, "per-FU counts must sum to issued");
        assert!(t.stats.issued_per_fu[1] > 0, "F32 work recorded");
        assert!(t.stats.issued_per_fu[4] > 0, "memory work recorded");
        assert!(t.stats.ipc(t.wave_cycles) > 0.0);
        // A load-tailed kernel has idle cycles while the loads return.
        assert!(t.stats.idle_cycles > 0);
    }
}

#[cfg(test)]
mod reference_tests {
    use super::*;
    use swapcodes_isa::{KernelBuilder, MemSpace, MemWidth, Reg, SpecialReg, Src};

    /// The optimized replay (persistent issue order, counted barrier scan,
    /// reused buffers) must be cycle-for-cycle identical to the seed
    /// reference across the model's three stall mechanisms: dependences,
    /// memory latency/bandwidth, and barriers.
    #[test]
    fn reference_replay_matches_optimized() {
        let cfg = TimingConfig::default();

        // ILP mix with loads (memory path).
        let mut k = KernelBuilder::new("mix");
        k.push(Op::S2R {
            d: Reg(0),
            sr: SpecialReg::TidX,
        });
        for i in 0..6u8 {
            k.push(Op::FAdd {
                d: Reg(1 + i),
                a: Reg(0),
                b: Src::Imm(0x3F80_0000),
            });
        }
        k.push(Op::Shl {
            d: Reg(7),
            a: Reg(0),
            b: Src::Imm(2),
        });
        k.push(Op::Ld {
            d: Reg(8),
            space: MemSpace::Global,
            addr: Reg(7),
            offset: 0,
            width: MemWidth::W32,
        });
        k.push(Op::Exit);
        let mix = k.finish();

        // Barrier kernel (release/retire path).
        let mut k = KernelBuilder::new("bar");
        k.push(Op::S2R {
            d: Reg(0),
            sr: SpecialReg::TidX,
        });
        k.push(Op::IAdd {
            d: Reg(1),
            a: Reg(0),
            b: Src::Imm(3),
        });
        k.push(Op::Bar);
        k.push(Op::IAdd {
            d: Reg(2),
            a: Reg(1),
            b: Src::Imm(5),
        });
        k.push(Op::Bar);
        k.push(Op::IAdd {
            d: Reg(3),
            a: Reg(2),
            b: Src::Imm(7),
        });
        k.push(Op::Exit);
        let barriers = k.finish();

        for (kernel, launch) in [
            (&mix, Launch::grid(4, 128)),
            (&barriers, Launch::grid(3, 96)),
        ] {
            let mut mem = GlobalMemory::new(4096);
            let fast = simulate_kernel(kernel, launch, &mut mem, &cfg).expect("timing");
            let mut mem = GlobalMemory::new(4096);
            let reference =
                simulate_kernel_reference(kernel, launch, &mut mem, &cfg).expect("timing");
            assert_eq!(fast, reference, "kernel {}", kernel.name());
        }
    }
}

#[cfg(test)]
mod event_tests {
    use super::*;
    use crate::exec::TraceEntry;
    use swapcodes_isa::{KernelBuilder, MemSpace, MemWidth, Reg, SpecialReg, Src};

    /// The default SM with `schedulers` warp schedulers, and a cycle
    /// budget small enough that a replay that never releases a barrier
    /// fails fast.
    fn sm(schedulers: u32) -> TimingConfig {
        let mut cfg = TimingConfig {
            max_cycles: 1_000_000,
            ..TimingConfig::default()
        };
        cfg.gpu.schedulers = schedulers;
        cfg
    }

    /// Replay `traces` on both replays, which must agree on the cycle count
    /// and every statistic; returns the statistics.
    fn replays_agree(kernel: &Kernel, traces: &[WarpTrace], cfg: &TimingConfig) -> WaveStats {
        let fast = replay_wave(kernel, traces, cfg).expect("production replay");
        let reference = replay_wave_reference(kernel, traces, cfg).expect("reference replay");
        assert_eq!(
            fast,
            reference,
            "{} on {} schedulers",
            kernel.name(),
            cfg.gpu.schedulers
        );
        fast.1
    }

    /// Every warp trace of `launch`, all of its CTAs.
    fn pass_traces(kernel: &Kernel, launch: Launch) -> Vec<WarpTrace> {
        let mut mem = GlobalMemory::new(1 << 16);
        traced_pass(kernel, launch, &mut mem, launch.ctas, u64::MAX)
            .expect("pass")
            .traces
    }

    /// A hand-written trace: warp `warp` of CTA `cta` issues kernel
    /// instructions `kidxs` in order.
    fn trace(cta: u32, warp: u32, kidxs: &[u32]) -> WarpTrace {
        let entries = kidxs
            .iter()
            .map(|&kidx| TraceEntry {
                kidx,
                mask: u32::MAX,
                txns: 1,
            })
            .collect();
        WarpTrace { cta, warp, entries }
    }

    /// `ops` after a thread-index prologue (`R0` = tid, `R1` = f32 tid).
    fn kernel(name: &str, ops: impl IntoIterator<Item = Op>) -> Kernel {
        let mut k = KernelBuilder::new(name);
        k.push(Op::S2R {
            d: Reg(0),
            sr: SpecialReg::TidX,
        });
        k.push(Op::I2F {
            d: Reg(1),
            a: Reg(0),
        });
        for op in ops {
            k.push(op);
        }
        k.push(Op::Exit);
        k.finish()
    }

    /// 1, 2 and 4 schedulers (one holding all 64 warps of two full CTAs),
    /// on an ILP and global-load mix, a barrier kernel, and an SFU- and an
    /// F64-bound kernel whose ports turn warps away.
    #[test]
    fn replay_matches_reference_on_one_two_and_four_schedulers() {
        let mix = kernel(
            "mix",
            (0..6u8)
                .map(|i| Op::FAdd {
                    d: Reg(2 + i),
                    a: Reg(1),
                    b: Src::Imm(0x3F80_0000),
                })
                .chain([
                    Op::Shl {
                        d: Reg(8),
                        a: Reg(0),
                        b: Src::Imm(2),
                    },
                    Op::Ld {
                        d: Reg(9),
                        space: MemSpace::Global,
                        addr: Reg(8),
                        offset: 0,
                        width: MemWidth::W32,
                    },
                    Op::IAdd {
                        d: Reg(10),
                        a: Reg(9),
                        b: Src::Imm(1),
                    },
                ]),
        );
        let barriers = kernel(
            "bar",
            [
                Op::IAdd {
                    d: Reg(2),
                    a: Reg(0),
                    b: Src::Imm(3),
                },
                Op::Bar,
                Op::IAdd {
                    d: Reg(3),
                    a: Reg(2),
                    b: Src::Imm(5),
                },
                Op::Bar,
                Op::Bar,
                Op::IAdd {
                    d: Reg(4),
                    a: Reg(3),
                    b: Src::Imm(7),
                },
            ],
        );
        let sfu = kernel(
            "sfu",
            (0..12u8).map(|i| {
                let d = Reg(2 + i % 4);
                if i % 2 == 0 {
                    Op::MufuRcp { d, a: Reg(1) }
                } else {
                    Op::MufuSqrt { d, a: d }
                }
            }),
        );
        let f64 = kernel(
            "f64",
            (0..12u8).map(|i| {
                let d = Reg(4 + 2 * (i % 3));
                Op::DFma {
                    d,
                    a: Reg(0),
                    b: Reg(2),
                    c: d,
                }
            }),
        );
        for launch in [Launch::grid(2, 1024), Launch::grid(3, 416)] {
            for k in [&mix, &barriers, &sfu, &f64] {
                let traces = pass_traces(k, launch);
                for schedulers in [1, 2, 4] {
                    let stats = replays_agree(k, &traces, &sm(schedulers));
                    if k.name() == "sfu" || k.name() == "f64" {
                        assert!(stats.fu_rejects > 0, "{}: {stats:?}", k.name());
                    }
                }
            }
        }
    }

    /// Kernel instructions the hand-written traces below issue.
    fn hand_kernel() -> Kernel {
        let mut k = KernelBuilder::new("hand");
        // 0: a dependent chain.
        k.push(Op::IAdd {
            d: Reg(0),
            a: Reg(0),
            b: Src::Imm(1),
        });
        // 1
        k.push(Op::Bar);
        // 2: independent F32 work.
        k.push(Op::FAdd {
            d: Reg(1),
            a: Reg(2),
            b: Src::Imm(0x3F80_0000),
        });
        // 3
        k.push(Op::Exit);
        // 4: a global load, and 5: its use.
        k.push(Op::Ld {
            d: Reg(3),
            space: MemSpace::Global,
            addr: Reg(4),
            offset: 0,
            width: MemWidth::W32,
        });
        k.push(Op::IAdd {
            d: Reg(5),
            a: Reg(3),
            b: Src::Imm(1),
        });
        k.finish()
    }

    /// CTA 0's barrier is released by its last unparked warp exiting, not
    /// by a warp parking: warps 2 and 3 park at once, warp 0 exits after a
    /// short chain (still one warp short), warp 1 after a long one. Warp 2
    /// loads before the barrier and uses the value after it, so the release
    /// must recompute when its operands are ready. CTA 1 releases by
    /// parking.
    #[test]
    fn barrier_released_by_the_last_unparked_warp_exiting() {
        let k = hand_kernel();
        let chain = |n: usize| -> Vec<u32> {
            let mut v = vec![0; n];
            v.push(3);
            v
        };
        let traces = [
            trace(0, 0, &chain(10)),
            trace(0, 1, &chain(20)),
            trace(0, 2, &[4, 1, 5, 2, 3]),
            trace(0, 3, &[1, 2, 2, 3]),
            trace(1, 0, &[2, 1, 2, 3]),
            trace(1, 1, &[1, 5, 3]),
        ];
        for schedulers in [1, 2, 4] {
            replays_agree(&k, &traces, &sm(schedulers));
        }
    }

    /// On one scheduler, warp 0 issues and warp 1, second in order, parks
    /// at its barrier as the same cycle's second pick, which ends the turn
    /// before warp 2. The release follows warp 0's exit.
    #[test]
    fn dual_issue_whose_second_pick_parks_at_a_barrier() {
        let k = hand_kernel();
        let traces = [
            trace(0, 0, &[2, 2, 3]),
            trace(0, 1, &[1, 2, 3]),
            trace(1, 0, &[2, 2, 2, 3]),
        ];
        for schedulers in [1, 2] {
            replays_agree(&k, &traces, &sm(schedulers));
        }
    }

    /// A scheduler's issue order is the bits of a `u64`: 64 warps replay,
    /// 65 are a typed error, where the reference replay takes any number.
    #[test]
    fn more_than_64_warps_per_scheduler_is_a_typed_error() {
        let k = hand_kernel();
        let warps = |n: u32| -> Vec<WarpTrace> {
            (0..n).map(|w| trace(w / 32, w % 32, &[2, 0, 3])).collect()
        };
        replays_agree(&k, &warps(64), &sm(1));
        let over = warps(65);
        assert!(matches!(
            replay_wave(&k, &over, &sm(1)),
            Err(ExecError::InvalidOp { .. })
        ));
        assert!(replay_wave_reference(&k, &over, &sm(1)).is_ok());
        replays_agree(&k, &over, &sm(2));

        // The same through `simulate_kernel`, on an SM that fits 96 warps.
        let mut cfg = sm(1);
        cfg.gpu.max_warps = 128;
        cfg.gpu.max_threads = 4096;
        let k = kernel("wide", []);
        let launch = Launch::grid(3, 1024);
        let err = simulate_kernel(&k, launch, &mut GlobalMemory::new(64), &cfg);
        assert!(matches!(err, Err(ExecError::InvalidOp { .. })), "{err:?}");
        simulate_kernel_reference(&k, launch, &mut GlobalMemory::new(64), &cfg).expect("reference");
    }

    /// An SM without schedulers could never issue: both timing runs reject
    /// it up front instead of idling to the cycle budget.
    #[test]
    fn zero_schedulers_are_rejected() {
        let k = kernel("none", []);
        let cfg = sm(0);
        for run in [simulate_kernel, simulate_kernel_reference] {
            let err = run(&k, Launch::grid(2, 64), &mut GlobalMemory::new(64), &cfg);
            assert!(matches!(err, Err(ExecError::InvalidOp { .. })), "{err:?}");
        }
    }
}

#[cfg(test)]
mod golden_tests {
    use super::*;
    use swapcodes_isa::{KernelBuilder, Reg, Src};

    /// Golden cycle counts for two small kernels. These pin the replay
    /// model's exact behaviour so hot-loop refactors (buffer reuse, sort
    /// strategy) cannot silently change scheduling decisions.
    #[test]
    fn golden_cycle_counts_are_stable() {
        let cfg = TimingConfig::default();
        let mut mem = GlobalMemory::new(64);

        // Independent adds across 8 registers: ILP-rich, issue-limited.
        let mut k = KernelBuilder::new("indep");
        for i in 0..24usize {
            k.push(Op::IAdd {
                d: Reg((i % 8) as u8),
                a: Reg(((i + 1) % 8) as u8),
                b: Src::Imm(1),
            });
        }
        k.push(Op::Exit);
        let indep =
            simulate_kernel(&k.finish(), Launch::grid(8, 128), &mut mem, &cfg).expect("timing");
        assert_eq!(
            (
                indep.cycles,
                indep.issued,
                indep.dynamic_instructions,
                indep.waves()
            ),
            (769, 800, 800, 1),
            "indep kernel timing drifted: {indep:?}"
        );

        // Single-register dependent chain: latency-limited.
        let mut k = KernelBuilder::new("chain");
        for _ in 0..32 {
            k.push(Op::IAdd {
                d: Reg(0),
                a: Reg(0),
                b: Src::Imm(1),
            });
        }
        k.push(Op::Exit);
        let chain =
            simulate_kernel(&k.finish(), Launch::grid(4, 64), &mut mem, &cfg).expect("timing");
        assert_eq!(
            (
                chain.cycles,
                chain.issued,
                chain.dynamic_instructions,
                chain.waves()
            ),
            (381, 264, 264, 1),
            "chain kernel timing drifted: {chain:?}"
        );
    }
}
