//! Detect-and-recover: the subsystem that closes SwapCodes' detection loop.
//!
//! The paper stops at detection — every scheme converts a pipeline error
//! into a DUE (or a trap, or a watchdog kill). This module adds the layer a
//! deployed system needs on top: a [`RecoveryEngine`] that converts those
//! detections back into completed, *correct* executions through a bounded
//! escalation ladder of pluggable policies:
//!
//! 1. **In-place ECC correction** (`EccCorrect`, opt-in): a DUE whose
//!    syndrome identifies a single data bit is corrected at the register
//!    through [`crate::regfile::WarpRegFile::correct_in_place`] and the warp
//!    keeps running. Cheapest — no rollback at all — but under swapped
//!    codewords it restores the *shadow's* value, so a shadow-side strike is
//!    miscorrected. The policy is off by default and its miscorrection rate
//!    is measured by the injection campaigns, never assumed zero.
//! 2. **Warp-level checkpoint/replay** (`WarpReplay`): the executor
//!    snapshots each warp's architectural state (PC fragments, predicates,
//!    the full ECC-protected register file) every
//!    [`RecoverySpec::checkpoint_interval`] instructions and at every
//!    barrier release. On a detection it rolls back *only the faulting
//!    warp* and replays — legal only while the warp has not externalized
//!    state (no stores, atomics or crossed barriers since the snapshot) and
//!    bounded by [`RecoverySpec::max_replays_per_warp`]. Replayed
//!    instructions are refunded to the fuel budget, so each replay attempt
//!    runs on a fresh budget instead of inheriting a half-spent one.
//! 3. **Kernel re-execution** (`Relaunch`): restore the input snapshot and
//!    relaunch the whole kernel with a fresh fuel budget and the (transient)
//!    fault cleared, at most [`RecoveryConfig::max_relaunches`] times.
//!
//! A run that still ends in a detection or a structural error after the
//! whole ladder is reported [`RecoveryOutcome::Unrecoverable`] — the ladder
//! always terminates, even when every attempt hangs, because every rung is
//! bounded and every attempt is fueled.

use swapcodes_isa::Kernel;

use crate::exec::{Detection, ExecConfig, ExecError, ExecOutcome, Executor, Launch};
use crate::memory::GlobalMemory;

/// The recovery policy that (last) acted on a run — ordered by cost, which
/// is also the escalation order of the ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RecoveryPolicy {
    /// A correctable syndrome was rewritten in place at the register file.
    EccCorrect,
    /// The faulting warp was rolled back to its last clean checkpoint and
    /// replayed.
    WarpReplay,
    /// The whole kernel was re-executed from the input snapshot.
    Relaunch,
}

impl RecoveryPolicy {
    /// Short stable label for reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::EccCorrect => "correct",
            Self::WarpReplay => "replay",
            Self::Relaunch => "relaunch",
        }
    }
}

/// In-executor recovery knobs (the part of the ladder the executor itself
/// implements; see [`crate::exec::ExecConfig::recovery`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoverySpec {
    /// Snapshot each warp's state every this many executed instructions
    /// (checkpoints are also refreshed at every barrier release, which is
    /// what makes rollback barrier-safe).
    pub checkpoint_interval: u64,
    /// Bounded retry at warp granularity: rollbacks allowed per warp before
    /// the detection escalates out of the executor.
    pub max_replays_per_warp: u32,
    /// Route single-data-bit DUE syndromes through in-place correction
    /// instead of halting. **Unsafe by design** (miscorrects shadow-side
    /// strikes); off in [`RecoverySpec::default`].
    pub storage_correction: bool,
}

impl Default for RecoverySpec {
    fn default() -> Self {
        Self {
            checkpoint_interval: 256,
            max_replays_per_warp: 3,
            storage_correction: false,
        }
    }
}

/// Work performed by the recovery machinery during one or more attempts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Warp checkpoints taken.
    pub checkpoints: u64,
    /// Warp rollbacks performed.
    pub replays: u64,
    /// Dynamic instructions discarded by rollbacks (and re-executed).
    pub replayed_instructions: u64,
    /// In-place ECC corrections applied.
    pub corrections: u64,
    /// Whole-kernel re-executions performed by the engine.
    pub relaunches: u32,
}

impl RecoveryStats {
    /// Accumulate another attempt's stats into this one.
    pub fn merge(&mut self, other: &RecoveryStats) {
        self.checkpoints += other.checkpoints;
        self.replays += other.replays;
        self.replayed_instructions += other.replayed_instructions;
        self.corrections += other.corrections;
        self.relaunches += other.relaunches;
    }

    /// Total recovery actions taken (corrections + rollbacks + relaunches) —
    /// the `attempts` reported in `Recovered{policy, attempts}` buckets.
    #[must_use]
    pub fn attempts(&self) -> u32 {
        u32::try_from(self.corrections + self.replays + u64::from(self.relaunches))
            .unwrap_or(u32::MAX)
    }

    /// The most expensive policy that acted, if any (the one a
    /// `Recovered` outcome is attributed to).
    #[must_use]
    pub fn dominant_policy(&self) -> Option<RecoveryPolicy> {
        if self.relaunches > 0 {
            Some(RecoveryPolicy::Relaunch)
        } else if self.replays > 0 {
            Some(RecoveryPolicy::WarpReplay)
        } else if self.corrections > 0 {
            Some(RecoveryPolicy::EccCorrect)
        } else {
            None
        }
    }
}

/// Full ladder configuration for a [`RecoveryEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// In-executor policies (checkpoint/replay and optional correction).
    pub spec: RecoverySpec,
    /// Bounded retry at kernel granularity: relaunches from the input
    /// snapshot after the in-executor rungs fail.
    pub max_relaunches: u32,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        Self {
            spec: RecoverySpec::default(),
            max_relaunches: 1,
        }
    }
}

impl RecoveryConfig {
    /// A ladder with every rung disabled (recovery off — detections are
    /// terminal, as in the plain campaigns).
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            spec: RecoverySpec {
                checkpoint_interval: u64::MAX,
                max_replays_per_warp: 0,
                storage_correction: false,
            },
            max_relaunches: 0,
        }
    }
}

/// How a [`RecoveryEngine::run`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryOutcome {
    /// No detection at all: the run completed without recovery acting.
    Clean,
    /// A detection occurred and the ladder converted it into a completed
    /// run. `policy` is the most expensive rung that acted; `attempts` the
    /// total recovery actions taken.
    Recovered {
        /// Most expensive policy that acted on the run.
        policy: RecoveryPolicy,
        /// Total recovery actions (corrections + rollbacks + relaunches).
        attempts: u32,
    },
    /// The ladder was exhausted with a detection or structural error still
    /// standing.
    Unrecoverable {
        /// Total recovery actions spent before giving up.
        attempts: u32,
    },
}

impl RecoveryOutcome {
    /// `true` for [`RecoveryOutcome::Recovered`].
    #[must_use]
    pub fn is_recovered(self) -> bool {
        matches!(self, Self::Recovered { .. })
    }
}

/// Result of one engine run: the final outcome, accounting, and the memory
/// of the accepted (or last) attempt.
#[derive(Debug)]
pub struct RecoveryRun {
    /// How the ladder ended.
    pub outcome: RecoveryOutcome,
    /// Recovery work summed over every attempt.
    pub stats: RecoveryStats,
    /// Global memory after the accepted attempt (last attempt when
    /// unrecoverable) — compare against golden output to audit recovery.
    pub mem: GlobalMemory,
    /// Executor outcome of the final attempt, when it returned one.
    pub exec: Option<ExecOutcome>,
    /// Residual detection of the final attempt (`None` when recovered).
    pub detection: Detection,
    /// Residual structural error of the final attempt (e.g. a hang that
    /// survived every relaunch).
    pub error: Option<ExecError>,
}

/// The detect-and-recover driver: wraps fueled execution in the bounded
/// escalation ladder described at module level.
#[derive(Debug, Clone)]
pub struct RecoveryEngine {
    /// Base executor configuration for attempt 0 (protection, fault, fuel).
    /// The engine arms `exec.recovery` itself from [`RecoveryEngine::config`].
    pub exec: ExecConfig,
    /// Ladder configuration.
    pub config: RecoveryConfig,
}

impl RecoveryEngine {
    /// An engine over `exec` with the default ladder.
    #[must_use]
    pub fn new(exec: ExecConfig) -> Self {
        Self {
            exec,
            config: RecoveryConfig::default(),
        }
    }

    /// Run `kernel` under the ladder, starting from the pristine `input`
    /// memory snapshot. The snapshot is cloned per attempt, so relaunches
    /// always restart from uncorrupted inputs.
    ///
    /// Every attempt gets a **fresh fuel budget**: the executor counts fuel
    /// per run, warp replays refund the discarded instructions, and each
    /// relaunch is a new fueled run — so a kernel that hangs on every
    /// attempt costs at most `(1 + max_relaunches) * fuel` steps before the
    /// ladder reports [`RecoveryOutcome::Unrecoverable`].
    #[must_use]
    pub fn run(&self, kernel: &Kernel, launch: Launch, input: &GlobalMemory) -> RecoveryRun {
        let mut stats = RecoveryStats::default();
        let mut cfg = self.exec.clone();
        cfg.recovery = Some(self.config.spec);

        // Attempt 0: the (possibly faulted) run with warp replay armed.
        let mut mem = input.clone();
        let mut last = Executor {
            config: cfg.clone(),
        }
        .run(kernel, launch, &mut mem);
        if let Ok(out) = &last {
            stats.merge(&out.recovery);
            if out.detection == Detection::None {
                let outcome = match stats.dominant_policy() {
                    None => RecoveryOutcome::Clean,
                    Some(policy) => RecoveryOutcome::Recovered {
                        policy,
                        attempts: stats.attempts(),
                    },
                };
                return finish(outcome, stats, mem, last);
            }
        }

        // Escalate: relaunch from the input snapshot. A transient or
        // control-state strike already fired (attempt 0) and does not recur
        // on re-execution, so it is disarmed; a permanent stuck-at site is
        // physical and stays armed across every relaunch.
        if cfg.fault.is_some_and(|f| !f.persists_across_relaunch()) {
            cfg.fault = None;
        }
        for _ in 0..self.config.max_relaunches {
            stats.relaunches += 1;
            let mut m = input.clone();
            last = Executor {
                config: cfg.clone(),
            }
            .run(kernel, launch, &mut m);
            mem = m;
            if let Ok(out) = &last {
                stats.merge(&out.recovery);
                if out.detection == Detection::None {
                    return finish(
                        RecoveryOutcome::Recovered {
                            policy: RecoveryPolicy::Relaunch,
                            attempts: stats.attempts(),
                        },
                        stats,
                        mem,
                        last,
                    );
                }
            }
        }

        let attempts = stats.attempts();
        finish(
            RecoveryOutcome::Unrecoverable { attempts },
            stats,
            mem,
            last,
        )
    }
}

fn finish(
    outcome: RecoveryOutcome,
    stats: RecoveryStats,
    mem: GlobalMemory,
    last: Result<ExecOutcome, ExecError>,
) -> RecoveryRun {
    let (exec, detection, error) = match last {
        Ok(out) => {
            let det = out.detection;
            (Some(out), det, None)
        }
        Err(e) => (None, Detection::None, Some(e)),
    };
    RecoveryRun {
        outcome,
        stats,
        mem,
        exec,
        detection,
        error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regfile::Protection;
    use swapcodes_isa::{KernelBuilder, Op, Reg, SpecialReg, Src};

    fn spin_kernel() -> Kernel {
        let mut k = KernelBuilder::new("spin");
        k.push(Op::S2R {
            d: Reg(0),
            sr: SpecialReg::TidX,
        });
        let top = k.label();
        k.bind(top);
        k.push(Op::IAdd {
            d: Reg(1),
            a: Reg(1),
            b: Src::Imm(1),
        });
        k.branch_to(top);
        k.push(Op::Exit);
        k.finish()
    }

    /// Satellite guarantee: the ladder terminates even when *every* attempt
    /// hangs, and each attempt gets its own fresh fuel budget rather than
    /// inheriting a drained one.
    #[test]
    fn ladder_terminates_when_every_attempt_hangs() {
        let fuel = 2_000u64;
        let engine = RecoveryEngine {
            exec: ExecConfig {
                fuel: Some(fuel),
                ..ExecConfig::default()
            },
            config: RecoveryConfig {
                max_relaunches: 3,
                ..RecoveryConfig::default()
            },
        };
        let input = GlobalMemory::new(64);
        let run = engine.run(&spin_kernel(), Launch::grid(1, 32), &input);
        assert_eq!(run.outcome, RecoveryOutcome::Unrecoverable { attempts: 3 });
        assert_eq!(run.stats.relaunches, 3);
        // Each hang individually exhausted a full budget — the relaunches
        // did not inherit a half-spent budget from attempt 0.
        match run.error {
            Some(ExecError::Hang { steps }) => assert!(steps > fuel),
            other => panic!("expected residual Hang, got {other:?}"),
        }
    }

    /// A clean kernel under an armed engine completes with `Clean` and takes
    /// only the periodic checkpoints (no rollbacks, no relaunches).
    #[test]
    fn clean_run_is_clean_and_checkpoints() {
        let mut k = KernelBuilder::new("store42");
        k.push(Op::S2R {
            d: Reg(0),
            sr: SpecialReg::TidX,
        });
        k.push(Op::IMul {
            d: Reg(1),
            a: Reg(0),
            b: Src::Imm(4),
        });
        k.push(Op::Mov {
            d: Reg(2),
            a: Src::Imm(42),
        });
        k.push(Op::St {
            space: swapcodes_isa::MemSpace::Global,
            addr: Reg(1),
            offset: 0,
            v: Reg(2),
            width: swapcodes_isa::MemWidth::W32,
        });
        k.push(Op::Exit);
        let kernel = k.finish();
        let engine = RecoveryEngine::new(ExecConfig {
            protection: Protection::SecDedDp,
            ..ExecConfig::default()
        });
        let input = GlobalMemory::new(32 * 4);
        let run = engine.run(&kernel, Launch::grid(1, 32), &input);
        assert_eq!(run.outcome, RecoveryOutcome::Clean);
        assert_eq!(run.stats.replays, 0);
        assert_eq!(run.stats.relaunches, 0);
        assert!(run.stats.checkpoints > 0, "initial checkpoint expected");
        assert_eq!(run.mem.read(0), 42);
    }

    #[test]
    fn disabled_ladder_leaves_detections_terminal() {
        let engine = RecoveryEngine {
            exec: ExecConfig {
                fuel: Some(500),
                ..ExecConfig::default()
            },
            config: RecoveryConfig::disabled(),
        };
        let input = GlobalMemory::new(64);
        let run = engine.run(&spin_kernel(), Launch::grid(1, 32), &input);
        assert_eq!(run.outcome, RecoveryOutcome::Unrecoverable { attempts: 0 });
        assert_eq!(run.stats.relaunches, 0);
    }

    #[test]
    fn policy_ordering_and_labels() {
        assert!(RecoveryPolicy::EccCorrect < RecoveryPolicy::WarpReplay);
        assert!(RecoveryPolicy::WarpReplay < RecoveryPolicy::Relaunch);
        let mut s = RecoveryStats {
            corrections: 2,
            ..RecoveryStats::default()
        };
        assert_eq!(s.dominant_policy(), Some(RecoveryPolicy::EccCorrect));
        s.replays = 1;
        assert_eq!(s.dominant_policy(), Some(RecoveryPolicy::WarpReplay));
        s.relaunches = 1;
        assert_eq!(s.dominant_policy(), Some(RecoveryPolicy::Relaunch));
        assert_eq!(s.attempts(), 4);
        assert_eq!(RecoveryPolicy::Relaunch.label(), "relaunch");
    }
}
