//! Cycle-level SM timing: replay functional traces against schedulers,
//! scoreboard, functional-unit throughput and memory bandwidth.
//!
//! The model captures the three first-order effects duplication has on a
//! SIMT core (§I of the paper): extra issue slots for checking code, lost
//! occupancy from shadow register pressure, and saturation of arithmetic
//! throughput from doubled operations — while remaining fast enough to sweep
//! every workload under every protection scheme.

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
/// Returns [`ExecError::InvalidOp`] when the kernel cannot fit on the SM at
/// all, [`ExecError::Hang`] when the replay exceeds its cycle budget
/// ([`TimingConfig::max_cycles`]), and propagates any functional-execution
/// error.
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
/// Same contract as [`simulate_kernel`].
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
    cta: u32,
    entries: &'a [crate::exec::TraceEntry],
    pos: usize,
    /// Cycle at which every source of `entries[pos]` is ready. Only this
    /// warp's own issues write its scoreboard, and each of them advances
    /// `pos`, so the value stays exact until it is recomputed there.
    src_ready: u64,
    waiting_bar: bool,
    last_issue: u64,
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
}

/// Replay one wave of traces on the SM model, returning the cycle count.
///
/// Cycle-for-cycle identical to [`replay_wave_reference`] (DESIGN §15):
/// the kernel is lowered once into a [`TimedInstr`] table, each warp
/// caches its next entry's source-ready cycle, the greedy-then-oldest
/// order is maintained by moving issuers to the front, and a live-warp
/// count replaces the all-done scan.
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
    let regs = kernel.register_count().max(1) as usize;
    let table: Vec<TimedInstr> = kernel.instrs().iter().map(TimedInstr::lower).collect();
    // Every scoreboard entry starts ready at cycle 0, so every cached
    // source-ready cycle does too.
    let mut ready = vec![0u64; traces.len() * regs];
    let mut warps: Vec<ReplayWarp<'_>> = traces
        .iter()
        .map(|t| ReplayWarp {
            cta: t.cta,
            entries: &t.entries,
            pos: 0,
            src_ready: 0,
            waiting_bar: false,
            last_issue: 0,
        })
        .collect();
    let mut live = warps.iter().filter(|w| !w.done()).count();

    let schedulers = cfg.gpu.schedulers as usize;
    let mut fu_free_qc = [0u64; 7];
    let mut mem_pipe_qc = 0u64;
    let mut cycle: u64 = 0;

    // Loop-invariant structure, hoisted out of the cycle loop: warp→CTA
    // membership and each scheduler's warp partition never change, so both
    // are computed once and the cycle loop never allocates.
    let cta_members: Vec<Vec<usize>> = {
        let mut ids: Vec<u32> = warps.iter().map(|w| w.cta).collect();
        ids.dedup();
        ids.iter()
            .map(|&cta| {
                warps
                    .iter()
                    .enumerate()
                    .filter(|(_, w)| w.cta == cta)
                    .map(|(i, _)| i)
                    .collect()
            })
            .collect()
    };
    // Per-scheduler greedy-then-oldest issue order, sorted by
    // `(Reverse(last_issue), warp index)`: what the reference's per-cycle
    // stable sort of the index order produces. Index order is sorted while
    // every key is 0; after that only issues change keys, and a
    // move-to-front keeps the order sorted.
    let mut orders: Vec<Vec<usize>> = (0..schedulers)
        .map(|s| (0..warps.len()).filter(|i| i % schedulers == s).collect())
        .collect();
    // Warps currently parked at a barrier; lets barrier-free cycles skip
    // the release scan entirely.
    let mut waiting_count: usize = 0;

    while live > 0 {
        if cycle >= cfg.max_cycles {
            return Err(ExecError::Hang { steps: cycle });
        }

        // Barrier release: per CTA, all unfinished warps waiting.
        if waiting_count > 0 {
            for members in &cta_members {
                let mut alive = 0usize;
                let mut waiting = 0usize;
                for &i in members {
                    if !warps[i].done() {
                        alive += 1;
                        waiting += usize::from(warps[i].waiting_bar);
                    }
                }
                if alive > 0 && alive == waiting {
                    for &i in members {
                        let w = &mut warps[i];
                        if !w.done() {
                            w.waiting_bar = false;
                            // Retire the barrier entry.
                            let warp_ready = &ready[i * regs..(i + 1) * regs];
                            if w.advance(&table, warp_ready) {
                                live -= 1;
                            }
                        }
                    }
                    waiting_count -= waiting;
                }
            }
        }

        let now_qc = cycle * 4;
        let mut issued_any = false;
        let mut next_event = u64::MAX;

        for order in &mut orders {
            // Greedy-then-oldest: most recently issued first, then oldest,
            // ties broken by warp id.
            let mut issued_at = [0usize; 2];
            let mut issued_this_sched = 0usize;
            for (p, &wi) in order.iter().enumerate() {
                let w = &mut warps[wi];
                if w.done() || w.waiting_bar {
                    continue;
                }
                let entry = w.entries[w.pos];
                let t = &table[entry.kidx as usize];

                // Barrier: mark waiting (retired at release).
                if t.kind == IssueKind::Barrier {
                    w.waiting_bar = true;
                    waiting_count += 1;
                    issued_any = true;
                    break;
                }

                // Scoreboard: every register source ready. Predicates,
                // guards included, are not scoreboarded.
                if w.src_ready > cycle {
                    next_event = next_event.min(w.src_ready);
                    stats.scoreboard_rejects += 1;
                    continue;
                }

                // Structural: functional unit issue port.
                let fi = usize::from(t.fu);
                if fu_free_qc[fi] > now_qc {
                    next_event = next_event.min(fu_free_qc[fi].div_ceil(4));
                    stats.fu_rejects += 1;
                    continue;
                }

                // Issue.
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
                w.last_issue = cycle;
                if w.advance(&table, warp_ready) {
                    live -= 1;
                }
                issued_any = true;
                issued_at[issued_this_sched] = p;
                issued_this_sched += 1;
                if issued_this_sched >= 2 {
                    break; // dual dispatch per scheduler per cycle (Pascal)
                }
            }
            // At cycle 0 the issuers' keys stay 0 like everyone's, so the
            // order is unchanged. Later, they hold the largest key, `cycle`:
            // move them to the front, two same-cycle issuers by warp index.
            if cycle > 0 && issued_this_sched > 0 {
                order[..=issued_at[0]].rotate_right(1);
                if issued_this_sched == 2 {
                    order[1..=issued_at[1]].rotate_right(1);
                    if order[0] > order[1] {
                        order.swap(0, 1);
                    }
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
