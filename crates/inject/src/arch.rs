//! Architecture-level end-to-end injection: corrupt one dynamic instruction
//! of a protected workload and observe the program-level outcome.
//!
//! Campaigns are **fueled** and **per-trial seeded**: every trial derives
//! its fault from `(seed, trial index)` alone, so a campaign can be paused,
//! killed and resumed (see [`crate::harness`]) — or split across workers —
//! and still produce byte-identical tallies; and every trial runs under a
//! hard step budget, so a fault that corrupts a loop bound or branch
//! predicate surfaces as a `hang` outcome instead of spinning the host
//! forever.
//!
//! Preparation is split from sampling: a [`PreparedCell`] holds everything
//! that does not depend on the seed or the fault mix, and an
//! [`ArchCampaign`] is a cheap view of one cell under a seed and a mix, so
//! many campaigns — the shards of a service job, say — share one prepare.

use std::marker::PhantomData;
use std::sync::{Arc, OnceLock};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use swapcodes_core::{PeepholeStats, Scheme};
use swapcodes_gates::units::{build_unit, UnitKind};
use swapcodes_gates::SiteCatalog;
use swapcodes_sim::exec::{CancelToken, Detection, ExecConfig, ExecError, Executor};
use swapcodes_sim::recovery::{
    RecoveryConfig, RecoveryEngine, RecoveryOutcome, RecoveryPolicy, RecoveryStats,
};
use swapcodes_sim::regfile::Protection;
use swapcodes_sim::snapshot::CampaignEngine;
use swapcodes_sim::tier2::ExecTier;
use swapcodes_sim::{ControlTarget, FaultClass, FaultSpec, FaultTarget, Launch};
use swapcodes_workloads::Workload;

/// The fault-class sampling mix of a campaign: integer weights for the
/// three injectable classes. Parsed from `SWAPCODES_FAULT_MODEL` (see
/// [`crate::harness::fault_mix_from_env`]): the bare class names
/// `"transient"`, `"control"`, `"stuckat"` select one class, `"all"` is an
/// even three-way mix, and a comma list like `"transient:2,control:1,stuckat:1"`
/// gives explicit weights.
///
/// The default — pure transient — draws faults in the *exact* RNG order the
/// pre-taxonomy campaign used, so every historical tally (and the
/// fast-forward differential gate in `perf_baseline`) stays byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultMix {
    /// Weight of the transient single/multi-bit XOR datapath class.
    pub transient: u32,
    /// Weight of the control-state class (predicates, active masks, barrier
    /// state, scheduler slots).
    pub control: u32,
    /// Weight of the permanent/intermittent stuck-at class.
    pub stuck_at: u32,
}

impl Default for FaultMix {
    fn default() -> Self {
        Self {
            transient: 1,
            control: 0,
            stuck_at: 0,
        }
    }
}

impl FaultMix {
    /// A mix drawing only transient faults (the legacy campaign).
    #[must_use]
    pub fn transient_only() -> Self {
        Self::default()
    }

    /// A mix drawing only control-state faults.
    #[must_use]
    pub fn control_only() -> Self {
        Self {
            transient: 0,
            control: 1,
            stuck_at: 0,
        }
    }

    /// A mix drawing only stuck-at faults.
    #[must_use]
    pub fn stuck_at_only() -> Self {
        Self {
            transient: 0,
            control: 0,
            stuck_at: 1,
        }
    }

    /// An even three-way mix over all classes.
    #[must_use]
    pub fn all_classes() -> Self {
        Self {
            transient: 1,
            control: 1,
            stuck_at: 1,
        }
    }

    /// `true` when only the transient class can be drawn — the mix under
    /// which trial draws are byte-identical to the pre-taxonomy campaign.
    #[must_use]
    pub fn is_pure_transient(&self) -> bool {
        self.control == 0 && self.stuck_at == 0
    }

    /// Sum of the class weights (the ticket range for class sampling).
    #[must_use]
    pub fn total_weight(&self) -> u64 {
        u64::from(self.transient) + u64::from(self.control) + u64::from(self.stuck_at)
    }

    /// Canonical identity tag stamped into campaign checkpoints: tallies
    /// drawn under different mixes must never be merged on resume.
    #[must_use]
    pub fn tag(&self) -> String {
        format!("t{}c{}s{}", self.transient, self.control, self.stuck_at)
    }

    /// Parse a `SWAPCODES_FAULT_MODEL` value.
    ///
    /// # Errors
    ///
    /// A human-readable message for unknown class names, malformed weights,
    /// or an all-zero mix.
    pub fn parse(v: &str) -> Result<Self, String> {
        let v = v.trim();
        match v {
            "transient" => return Ok(Self::transient_only()),
            "control" => return Ok(Self::control_only()),
            "stuckat" => return Ok(Self::stuck_at_only()),
            "all" => return Ok(Self::all_classes()),
            _ => {}
        }
        let mut mix = Self {
            transient: 0,
            control: 0,
            stuck_at: 0,
        };
        for part in v.split(',') {
            let part = part.trim();
            let (name, weight) = match part.split_once(':') {
                Some((n, w)) => {
                    let w: u32 = w
                        .trim()
                        .parse()
                        .map_err(|e| format!("bad weight in {part:?}: {e}"))?;
                    (n.trim(), w)
                }
                None => (part, 1),
            };
            let slot = match name {
                "transient" => &mut mix.transient,
                "control" => &mut mix.control,
                "stuckat" | "stuck-at" | "stuck_at" => &mut mix.stuck_at,
                _ => return Err(format!("unknown fault class {name:?}")),
            };
            *slot = slot.checked_add(weight).ok_or("weight overflow")?;
        }
        if mix.total_weight() == 0 {
            return Err("mix selects no fault class".to_owned());
        }
        Ok(mix)
    }
}

/// Per-fault-class outcome tallies of a mixed campaign. The aggregate of the
/// three buckets always equals what a single [`ArchOutcomes`] would have
/// tallied; the split is what Fig.-style reporting per class needs — control
/// faults land overwhelmingly in hang/SDC where transients land in DUE.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultClassTallies {
    /// Outcomes of transient-class trials.
    pub transient: ArchOutcomes,
    /// Outcomes of control-state-class trials.
    pub control: ArchOutcomes,
    /// Outcomes of stuck-at-class trials.
    pub stuck_at: ArchOutcomes,
}

impl FaultClassTallies {
    /// Record one classed trial outcome.
    pub fn record(&mut self, class: FaultClass, outcome: TrialOutcome) {
        self.bucket_mut(class).record(outcome);
    }

    /// The tally bucket for `class`.
    pub fn bucket_mut(&mut self, class: FaultClass) -> &mut ArchOutcomes {
        match class {
            FaultClass::Transient => &mut self.transient,
            FaultClass::Control(_) => &mut self.control,
            FaultClass::StuckAt(_) => &mut self.stuck_at,
        }
    }

    /// All three buckets merged into one aggregate tally.
    #[must_use]
    pub fn aggregate(&self) -> ArchOutcomes {
        let mut out = self.transient;
        out.merge(&self.control);
        out.merge(&self.stuck_at);
        out
    }

    /// Total trials across every class — always equals
    /// `self.aggregate().total()`.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.transient.total() + self.control.total() + self.stuck_at.total()
    }

    /// Field-by-field accumulation of another tally set.
    pub fn merge(&mut self, other: &FaultClassTallies) {
        self.transient.merge(&other.transient);
        self.control.merge(&other.control);
        self.stuck_at.merge(&other.stuck_at);
    }

    /// The buckets with their class labels, in class order.
    #[must_use]
    pub fn classes(&self) -> [(&'static str, &ArchOutcomes); 3] {
        [
            ("transient", &self.transient),
            ("control", &self.control),
            ("stuckat", &self.stuck_at),
        ]
    }
}

/// Outcome counts of an architecture-level campaign.
///
/// `trap`/`due` are code-detected, `crash` is a memory-protection kill, and
/// `hang` is timeout-detected (divergent barrier or watchdog budget
/// exhaustion). All four count toward DUE coverage but are reported
/// separately so figure-style detection numbers can distinguish
/// timeout-detected from code-detected errors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArchOutcomes {
    /// Detected by an explicit software check (trap).
    pub trap: u64,
    /// Detected by the register-file decoder (DUE).
    pub due: u64,
    /// Detected as a memory-protection crash (out-of-bounds access).
    pub crash: u64,
    /// Detected by timeout: a divergent barrier or an exhausted step budget
    /// (the driver watchdog killing a hung kernel).
    pub hang: u64,
    /// No architectural effect (output identical to golden).
    pub masked: u64,
    /// Silent data corruption at the program output.
    pub sdc: u64,
    /// Detection converted to a completed, correct run by in-place ECC
    /// storage correction.
    pub recovered_correct: u64,
    /// Detection converted to a completed, correct run by warp-level
    /// checkpoint/replay.
    pub recovered_replay: u64,
    /// Detection converted to a completed, correct run by whole-kernel
    /// re-execution.
    pub recovered_relaunch: u64,
    /// A recovery path completed the run but the output differs from golden
    /// — a recovery-induced SDC (in-place correction gambling wrong under
    /// swapped codewords).
    pub miscorrected: u64,
}

impl ArchOutcomes {
    /// Total trials.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.trap
            + self.due
            + self.crash
            + self.hang
            + self.masked
            + self.sdc
            + self.recovered()
            + self.miscorrected
    }

    /// Trials recovered by any policy.
    #[must_use]
    pub fn recovered(&self) -> u64 {
        self.recovered_correct + self.recovered_replay + self.recovered_relaunch
    }

    /// Detected fraction among unmasked faults (hangs count as detected —
    /// the watchdog is a detector, just a slow one; recovered trials were
    /// detected first, so they count as detected too, while miscorrections
    /// are recovery-induced escapes and count against coverage).
    #[must_use]
    pub fn coverage(&self) -> f64 {
        let detected = self.trap + self.due + self.crash + self.hang + self.recovered();
        let unmasked = detected + self.sdc + self.miscorrected;
        if unmasked == 0 {
            1.0
        } else {
            detected as f64 / unmasked as f64
        }
    }

    /// Record one trial outcome.
    pub fn record(&mut self, outcome: TrialOutcome) {
        match outcome {
            TrialOutcome::Trap => self.trap += 1,
            TrialOutcome::Due => self.due += 1,
            TrialOutcome::Crash => self.crash += 1,
            TrialOutcome::Hang => self.hang += 1,
            TrialOutcome::Masked => self.masked += 1,
            TrialOutcome::Sdc => self.sdc += 1,
            TrialOutcome::Recovered { policy, .. } => match policy {
                RecoveryPolicy::EccCorrect => self.recovered_correct += 1,
                RecoveryPolicy::WarpReplay => self.recovered_replay += 1,
                RecoveryPolicy::Relaunch => self.recovered_relaunch += 1,
            },
            TrialOutcome::Miscorrected => self.miscorrected += 1,
        }
    }

    /// Field-by-field accumulation of another tally.
    pub fn merge(&mut self, other: &ArchOutcomes) {
        self.trap += other.trap;
        self.due += other.due;
        self.crash += other.crash;
        self.hang += other.hang;
        self.masked += other.masked;
        self.sdc += other.sdc;
        self.recovered_correct += other.recovered_correct;
        self.recovered_replay += other.recovered_replay;
        self.recovered_relaunch += other.recovered_relaunch;
        self.miscorrected += other.miscorrected;
    }
}

/// The program-level outcome of a single injected trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialOutcome {
    /// A software-duplication checking trap fired.
    Trap,
    /// The register-file decoder raised a DUE.
    Due,
    /// A memory-protection crash.
    Crash,
    /// Timeout-detected: divergent barrier or step-budget exhaustion.
    Hang,
    /// Output identical to golden.
    Masked,
    /// Silent data corruption.
    Sdc,
    /// A detection occurred and the recovery ladder converted it into a
    /// completed run whose output matches golden.
    Recovered {
        /// Most expensive recovery policy that acted on the trial.
        policy: RecoveryPolicy,
        /// Total recovery actions (corrections + rollbacks + relaunches).
        attempts: u32,
    },
    /// A recovery path completed the run with output **different** from
    /// golden: a recovery-induced SDC.
    Miscorrected,
}

/// Why a campaign could not even start (before any trial runs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrepError {
    /// The scheme does not apply to the workload (§V transparency failure).
    NotApplicable,
    /// The fault-free golden run failed structurally.
    Golden(ExecError),
    /// The fault-free golden run tripped a detector (workload/scheme bug).
    GoldenDetected,
}

impl std::fmt::Display for PrepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NotApplicable => write!(f, "scheme does not apply to workload"),
            Self::Golden(e) => write!(f, "golden run failed: {e}"),
            Self::GoldenDetected => write!(f, "golden run tripped a detector"),
        }
    }
}

impl std::error::Error for PrepError {}

/// Engine selection for a prepared campaign: which execution tier the
/// golden capture and every trial run on, the fault mix trials draw from,
/// and the copy-on-write page size they resume with. Every campaign runs
/// the [`mod@swapcodes_core::peephole`] cleanup pass over the transformed
/// kernel first, so the reference executor and both tiers execute the same
/// cleaned kernel. The default tier 2 is the production path; tier 1 is
/// the interpreter `perf_baseline` times it against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignOptions {
    /// Execution tier trials (and the golden capture) run on.
    pub tier: ExecTier,
    /// Fault-class sampling mix for per-trial draws (default: pure
    /// transient, byte-identical to the pre-taxonomy campaign).
    pub mix: FaultMix,
    /// Copy-on-write page size (32-bit words) for snapshot resume; rounded
    /// up to a power of two at capture. Outcome-invariant: it only changes
    /// how much state a trial materializes, never what it computes.
    pub cow_page_words: usize,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        Self {
            tier: ExecTier::Tier2,
            mix: FaultMix::default(),
            cow_page_words: swapcodes_sim::DEFAULT_COW_PAGE_WORDS,
        }
    }
}

impl CampaignOptions {
    /// The defaults, with `SWAPCODES_FAULT_MODEL` (when set and
    /// well-formed) overriding the fault-class mix. A malformed value is
    /// surfaced once as an anomaly (see
    /// [`crate::harness::take_env_anomalies`]) and ignored.
    #[must_use]
    pub fn from_env() -> Self {
        let mut opts = Self::default();
        if let Some(mix) = crate::harness::fault_mix_from_env() {
            opts.mix = mix;
        }
        opts
    }

    /// The engine tag stamped into shard checkpoints. A checkpoint written
    /// under a different engine is rejected as stale on resume (restart
    /// from the shard's first trial) instead of silently mixing tallies
    /// produced by different executors — see
    /// [`crate::harness::run_arch_shard_checkpointed`].
    #[must_use]
    pub fn engine_tag(self) -> &'static str {
        match self.tier {
            ExecTier::Tier1 => "ff1p",
            ExecTier::Tier2 => "ff2p",
        }
    }
}

/// Everything [`PreparedCell::prepare`] reads besides the workload: the
/// scheme, the engine options, and the fuel and snapshot-interval
/// overrides resolved from the environment. Equal configs over the same
/// workload prepare identical cells, so a cache of prepared cells can key
/// on the workload and this config alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellConfig {
    scheme: Scheme,
    tier: ExecTier,
    cow_page_words: usize,
    /// `SWAPCODES_FUEL`; `None` derives the budget from the golden run.
    fuel: Option<u64>,
    /// `SWAPCODES_SNAPSHOT_INTERVAL`; `None` derives the epoch spacing from
    /// the golden run.
    snapshot_interval: Option<u64>,
}

impl CellConfig {
    /// `scheme` under the engine options of `options`, with the fuel and
    /// snapshot-interval overrides read from the environment now. The
    /// fault mix plays no part: it belongs to each campaign viewing the
    /// cell.
    #[must_use]
    pub fn resolve(scheme: Scheme, options: CampaignOptions) -> Self {
        Self {
            scheme,
            tier: options.tier,
            cow_page_words: options.cow_page_words,
            fuel: crate::harness::fuel_from_env(),
            snapshot_interval: crate::harness::snapshot_interval_from_env(),
        }
    }
}

/// The seed- and mix-independent part of an architecture-level campaign:
/// the transformed kernel, its golden output and eligible-op count, the
/// per-trial fuel, and the fast-forward engine (predecoded kernel, tier-2
/// code, golden epoch ladder). A cell is never modified once prepared, so
/// any number of [`ArchCampaign`] views — other seeds, other fault mixes,
/// other threads — can share one behind an `Arc`, and each draws and
/// classifies every trial exactly as a freshly prepared campaign would.
#[derive(Debug)]
pub struct PreparedCell {
    workload: Workload,
    config: CellConfig,
    kernel: swapcodes_isa::Kernel,
    launch: Launch,
    protection: Protection,
    golden: Vec<u32>,
    eligible: u64,
    fuel: u64,
    engine: CampaignEngine,
    peephole: PeepholeStats,
}

impl PreparedCell {
    /// Transform `workload` under the config's scheme, run the peephole
    /// pass over the transformed kernel, run the fault-free golden
    /// execution on the reference executor, and build the fast-forward
    /// engine from a second, captured golden run that must agree with the
    /// first. Both golden runs, and every trial on either path, execute the
    /// identical cleaned kernel.
    ///
    /// # Errors
    ///
    /// [`PrepError::NotApplicable`] when the scheme cannot transform the
    /// workload; [`PrepError::Golden`]/[`PrepError::GoldenDetected`] when
    /// the fault-free run itself fails — a workload bug surfaced
    /// structurally instead of panicking the campaign host.
    ///
    /// # Panics
    ///
    /// When the captured golden run diverges from the reference one: every
    /// trial of the cell would be skewed.
    pub fn prepare(workload: Workload, config: CellConfig) -> Result<Self, PrepError> {
        let t = swapcodes_core::apply(config.scheme, &workload.kernel, workload.launch)
            .map_err(|_| PrepError::NotApplicable)?;
        let (kernel, peephole) = swapcodes_core::peephole(&t.kernel);
        let mut golden_mem = workload.build_memory();
        let exec = Executor {
            config: ExecConfig {
                protection: t.protection,
                cta_limit: Some(1),
                ..ExecConfig::default()
            },
        };
        let gout = exec
            .run(&kernel, t.launch, &mut golden_mem)
            .map_err(PrepError::Golden)?;
        if gout.detection != Detection::None {
            return Err(PrepError::GoldenDetected);
        }
        let golden = workload.output_words(&golden_mem);
        let eligible = gout.profile.eligible_plain + gout.profile.eligible_predicted;
        // Generous watchdog margin over the fault-free run: real injected
        // control-flow faults either finish near the golden length or spin,
        // and 8x + slack separates the two cheaply.
        let fuel = config
            .fuel
            .unwrap_or_else(|| gout.dynamic_instructions.saturating_mul(8) + 10_000);
        // Build the fast-forward engine: predecode once, then replay the
        // golden run capturing the epoch ladder. Aim for ~32 rungs unless
        // the snapshot interval is overridden: rungs land at the first warp
        // boundary past each interval, so they are never more than one
        // 64-instruction quantum late, whatever the CTA's warp count.
        let interval = config
            .snapshot_interval
            .unwrap_or_else(|| (gout.dynamic_instructions / 32).max(512));
        let (engine, cap) = CampaignEngine::capture_config(
            &kernel,
            t.launch,
            t.protection,
            &workload.build_memory(),
            interval,
            &ExecConfig {
                tier: config.tier,
                cow_page_words: config.cow_page_words,
                ..ExecConfig::default()
            },
        )
        .map_err(PrepError::Golden)?;
        // The capture run must agree with the reference golden run it
        // shadows: any divergence here would silently skew every trial.
        assert_eq!(
            cap.dynamic_instructions, gout.dynamic_instructions,
            "fast-forward golden diverged from reference golden"
        );
        assert_eq!(
            workload.output_words(&cap.mem),
            golden,
            "fast-forward golden output diverged from reference golden"
        );
        Ok(Self {
            workload,
            config,
            kernel,
            launch: t.launch,
            protection: t.protection,
            golden,
            eligible,
            fuel,
            engine,
            peephole,
        })
    }
}

/// The area-weighted stuck-at site catalog over the FxP MAD unit, built on
/// first use and shared by every campaign of the process. Stuck-at sites
/// are physical: the unit's injectable nodes carry NAND2-area weights (the
/// paper's densest datapath unit), so permanent-defect probability follows
/// silicon cross-section rather than a uniform bit draw.
fn fxp_mad_sites() -> &'static SiteCatalog {
    static SITES: OnceLock<SiteCatalog> = OnceLock::new();
    SITES.get_or_init(|| SiteCatalog::from_netlist(build_unit(UnitKind::FxpMad32).netlist()))
}

/// A prepared architecture-level campaign: a [`PreparedCell`] viewed under
/// one seed and fault mix, with the per-trial fault sampler on top. Trials
/// are independent pure functions of `(seed, trial index)`, which is what
/// makes checkpoint/resume and parallel sharding byte-identical. A view
/// holds nothing seed-independent, so [`ArchCampaign::from_cell`] costs no
/// transform, golden run or capture.
///
/// Trials run through [`ArchCampaign::run_trial_classed_salted`] (and its
/// cancellable and telemetry forms, and [`ArchCampaign::run_range_classed`]
/// over a range), which resume copy-on-write from the nearest epoch
/// snapshot at or before the injection site and prune the suffix on golden
/// convergence. [`ArchCampaign::run_trial_reference_salted`] runs the same
/// trial from scratch on the reference [`Executor`], the one oracle the
/// fast path is differentially tested against (by proptest and by the
/// `perf_baseline` tally gates). [`ArchCampaign::run_trial_recovering`]
/// runs a trial through the recovery ladder.
#[derive(Debug)]
pub struct ArchCampaign<'w> {
    cell: Arc<PreparedCell>,
    seed: u64,
    mix: FaultMix,
    /// The shared stuck-at site catalog — present only when the mix can
    /// draw the stuck-at class.
    sites: Option<&'static SiteCatalog>,
    /// Hard per-trial step budget. Defaults to a margin over the golden
    /// run's dynamic instruction count (`SWAPCODES_FUEL` overrides).
    pub fuel: u64,
    /// The cell owns its workload; the lifetime only keeps the type of a
    /// campaign prepared from a borrowed one.
    _workload: PhantomData<&'w Workload>,
}

/// Fast-forward telemetry of one trial (bench reporting: how much work the
/// snapshot resume and the convergence early-exit actually saved).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialTelemetry {
    /// Dynamic-instruction count of the epoch snapshot the trial resumed
    /// from (0 = ran from the start).
    pub resumed_from: u64,
    /// Dynamic instructions the trial actually executed.
    pub executed: u64,
    /// Whether the trial was classified Masked by golden convergence
    /// without running to completion (rules 1–3 of DESIGN §9, or a
    /// datapath fault that can never fire).
    pub early_exit: bool,
    /// Whether only the struck warp ran after the strike (rule 4 of DESIGN
    /// §9); a confined run that could not decide and re-ran is not.
    pub confined: bool,
    /// Bytes of snapshot state the trial materialized (CoW resume cost).
    pub bytes_cloned: u64,
    /// Global-memory pages materialized by the trial's writes.
    pub cow_pages_cloned: u64,
    /// Total global-memory pages in the resume snapshot.
    pub cow_pages_total: u64,
}

impl<'w> ArchCampaign<'w> {
    /// Transform the workload under `scheme` and run the fault-free golden
    /// execution, under [`CampaignOptions::from_env`] (tier 2 over a
    /// peepholed kernel).
    ///
    /// # Errors
    ///
    /// [`PrepError::NotApplicable`] when the scheme cannot transform the
    /// workload; [`PrepError::Golden`]/[`PrepError::GoldenDetected`] when
    /// the fault-free run itself fails — a workload bug surfaced
    /// structurally instead of panicking the campaign host.
    pub fn prepare(workload: &'w Workload, scheme: Scheme, seed: u64) -> Result<Self, PrepError> {
        Self::prepare_with(workload, scheme, seed, CampaignOptions::from_env())
    }

    /// [`Self::prepare`] with explicit engine options: prepares a fresh
    /// [`PreparedCell`] over a copy of `workload` and views it under `seed`
    /// and `options.mix`. Nothing is cached; a caller running many seeds or
    /// mixes over one cell prepares it once with [`PreparedCell::prepare`]
    /// and views it with [`Self::from_cell`].
    ///
    /// # Errors
    ///
    /// As [`PreparedCell::prepare`].
    pub fn prepare_with(
        workload: &'w Workload,
        scheme: Scheme,
        seed: u64,
        options: CampaignOptions,
    ) -> Result<Self, PrepError> {
        let owned = Workload {
            kernel: workload.kernel.clone(),
            ..*workload
        };
        let cell = PreparedCell::prepare(owned, CellConfig::resolve(scheme, options))?;
        Ok(Self::from_cell(Arc::new(cell), seed, options.mix))
    }

    /// A campaign drawing its faults from `seed` under `mix` over a
    /// prepared cell. The only work it can do is build the process-wide
    /// stuck-at site catalog, on the first stuck-at mix.
    #[must_use]
    pub fn from_cell(cell: Arc<PreparedCell>, seed: u64, mix: FaultMix) -> Self {
        Self {
            fuel: cell.fuel,
            sites: (mix.stuck_at > 0).then(fxp_mad_sites),
            cell,
            seed,
            mix,
            _workload: PhantomData,
        }
    }

    /// Engine options the campaign was prepared with.
    #[must_use]
    pub fn options(&self) -> CampaignOptions {
        let c = &self.cell.config;
        CampaignOptions {
            tier: c.tier,
            mix: self.mix,
            cow_page_words: c.cow_page_words,
        }
    }

    /// The checkpoint engine tag (see [`CampaignOptions::engine_tag`]).
    #[must_use]
    pub fn engine_tag(&self) -> &'static str {
        self.options().engine_tag()
    }

    /// Peephole statistics over the transformed kernel.
    #[must_use]
    pub fn peephole_stats(&self) -> PeepholeStats {
        self.cell.peephole
    }

    /// Adjacent micro-op pairs the tier-2 compiler fused into
    /// superinstruction closures (0 on tier 1).
    #[must_use]
    pub fn fused_pairs(&self) -> usize {
        self.cell.engine.fused_pairs()
    }

    /// Number of epoch snapshots captured for fast-forwarding.
    #[must_use]
    pub fn snapshot_count(&self) -> usize {
        self.cell.engine.snapshot_count()
    }

    /// Snapshot spacing in dynamic instructions.
    #[must_use]
    pub fn snapshot_interval(&self) -> u64 {
        self.cell.engine.interval()
    }

    /// Dynamic instructions of the golden run (what every from-scratch
    /// trial pays, and what fast-forwarding avoids re-executing).
    #[must_use]
    pub fn golden_dynamic(&self) -> u64 {
        self.cell.engine.golden_dynamic()
    }

    /// Whether no word one warp of the golden run writes is read or written
    /// by another, so that barrier strikes are classified Masked without
    /// executing (see [`CampaignEngine::warp_independent`]).
    #[must_use]
    pub fn warp_independent(&self) -> bool {
        self.cell.engine.warp_independent()
    }

    /// The transformed kernel trials execute (the static verifier's input
    /// for differential checking, see [`crate::oracle`]).
    #[must_use]
    pub fn kernel(&self) -> &swapcodes_isa::Kernel {
        &self.cell.kernel
    }

    /// The transformed launch geometry (for timing the recovered kernel).
    #[must_use]
    pub fn launch(&self) -> Launch {
        self.cell.launch
    }

    /// The register-file protection mode trials execute under — what a
    /// reference re-execution (e.g. the ACE analyzer's issue-log capture)
    /// must use to replay the golden dynamic stream exactly.
    #[must_use]
    pub fn protection(&self) -> Protection {
        self.cell.protection
    }

    /// The scheme this campaign was transformed under.
    #[must_use]
    pub fn scheme(&self) -> Scheme {
        self.cell.config.scheme
    }

    /// The untransformed source workload.
    #[must_use]
    pub fn workload(&self) -> &Workload {
        &self.cell.workload
    }

    /// The campaign seed every per-trial draw derives from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The area-weighted stuck-at site catalog (present only when the mix
    /// can draw the stuck-at class).
    #[must_use]
    pub fn site_catalog(&self) -> Option<&SiteCatalog> {
        self.sites
    }

    /// The fault injected by trial `trial` under retry `salt` (salt 0 is
    /// the normal draw; pure in `(seed, trial, salt)`). The containment harness bumps the salt when a
    /// trial's work item panics, so the bounded retry re-seeds
    /// deterministically instead of replaying the identical crash.
    ///
    /// Under the default pure-transient mix this draws in the *exact* RNG
    /// order the pre-taxonomy campaign used (index, lane, bit, side — no
    /// extra draws), so historical tallies and the fast-forward
    /// differential gate stay byte-identical. A mixed campaign draws a
    /// class ticket first, then the class-specific fields.
    #[must_use]
    pub fn trial_fault_salted(&self, trial: u64, salt: u32) -> FaultSpec {
        let mut rng = SmallRng::seed_from_u64(
            self.seed
                ^ (trial + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ u64::from(salt).wrapping_mul(0xA076_1D64_78BD_642F),
        );
        let mix = self.mix;
        if mix.is_pure_transient() {
            return FaultSpec {
                eligible_index: rng.gen_range(0..self.cell.eligible.max(1)),
                lane: rng.gen_range(0..32),
                xor_mask: 1u64 << rng.gen_range(0..32u32),
                target: if rng.gen_bool(0.5) {
                    FaultTarget::Original
                } else {
                    FaultTarget::Shadow
                },
                class: FaultClass::Transient,
            };
        }
        let ticket = rng.gen_range(0..mix.total_weight());
        if ticket < u64::from(mix.transient) {
            self.draw_transient(&mut rng)
        } else if ticket < u64::from(mix.transient) + u64::from(mix.control) {
            self.draw_control(&mut rng)
        } else {
            self.draw_stuck_at(&mut rng)
        }
    }

    /// Transient draw for mixed campaigns: like the legacy draw, but the
    /// strike can be a contiguous multi-bit burst (widths 1/2/4, biased
    /// toward single-bit) — the SDC-anatomy observation that field errors
    /// are frequently multi-bit and spatially patterned.
    fn draw_transient(&self, rng: &mut SmallRng) -> FaultSpec {
        let eligible_index = rng.gen_range(0..self.cell.eligible.max(1));
        let lane = rng.gen_range(0..32u32);
        let width = match rng.gen_range(0..6u32) {
            0..=2 => 1u32,
            3 | 4 => 2,
            _ => 4,
        };
        let bit = rng.gen_range(0..=(32 - width));
        let mut f =
            FaultSpec::try_burst(eligible_index, lane, bit, width).expect("drawn burst in range");
        f.target = if rng.gen_bool(0.5) {
            FaultTarget::Original
        } else {
            FaultTarget::Shadow
        };
        f
    }

    /// Control-state draw: a strike on parallelism-management state at a
    /// uniformly chosen *global dynamic instruction* of the golden run.
    fn draw_control(&self, rng: &mut SmallRng) -> FaultSpec {
        let dyn_index = rng.gen_range(0..self.cell.engine.golden_dynamic().max(1));
        let lane = rng.gen_range(0..32u32);
        let target_state = match rng.gen_range(0..4u32) {
            0 => ControlTarget::Predicate,
            1 => ControlTarget::ActiveMask,
            2 => ControlTarget::Barrier,
            _ => ControlTarget::SchedulerSlot,
        };
        let xor_mask = match target_state {
            // Predicate files are 8 bits per lane.
            ControlTarget::Predicate => 1u64 << rng.gen_range(0..8u32),
            // One lane's active bit flips (joins or leaves the fragment).
            ControlTarget::ActiveMask => 1u64 << rng.gen_range(0..32u32),
            // Barrier arrival state toggles; no mask involved.
            ControlTarget::Barrier => 0,
            // A low PC bit flips in the scheduler slot — a near jump that
            // may also leave the kernel entirely (warp retires).
            ControlTarget::SchedulerSlot => 1u64 << rng.gen_range(0..3u32),
        };
        FaultSpec::try_control(dyn_index, lane, target_state, xor_mask)
            .expect("drawn control fault is valid")
    }

    /// Stuck-at draw: the site comes from the area-weighted gate catalog
    /// (larger cells present a larger defect cross-section); bit position
    /// and stuck polarity derive deterministically from the site id, and a
    /// quarter of draws are intermittent (duty-cycled) rather than
    /// permanent.
    fn draw_stuck_at(&self, rng: &mut SmallRng) -> FaultSpec {
        let cat = self.sites.expect("site catalog built for stuck-at mixes");
        let site = cat
            .pick_weighted(rng.gen_range(0..cat.total_weight().max(1)))
            .expect("ticket in range of non-empty catalog");
        let activation = rng.gen_range(0..self.cell.eligible.max(1));
        let lane = rng.gen_range(0..32u32);
        let bit = site.node % 32;
        let value = (site.node / 32) % 2 == 1;
        let period = if rng.gen_range(0..4u32) == 0 {
            rng.gen_range(8..64u32)
        } else {
            0
        };
        let target = if rng.gen_bool(0.5) {
            FaultTarget::Original
        } else {
            FaultTarget::Shadow
        };
        FaultSpec::try_stuck_at(activation, lane, bit, value, site.node, period, target)
            .expect("drawn stuck-at fault is valid")
    }

    /// Run trial `trial` under containment-retry `salt` (see
    /// [`Self::trial_fault_salted`]) and classify its outcome, returned
    /// with the drawn fault's class — what the mixed-campaign drivers
    /// bucket per-class tallies by ([`FaultClassTallies`]). Never panics
    /// and never loops forever: memory violations become
    /// [`TrialOutcome::Crash`] and budget exhaustion becomes
    /// [`TrialOutcome::Hang`].
    ///
    /// Trials fast-forward: they resume from the nearest epoch snapshot at
    /// or before the injection site and are classified Masked early when
    /// post-strike state re-converges to golden. Outcomes are byte-identical
    /// to [`Self::run_trial_reference_salted`].
    #[must_use]
    pub fn run_trial_classed_salted(&self, trial: u64, salt: u32) -> (FaultClass, TrialOutcome) {
        let fault = self.trial_fault_salted(trial, salt);
        let (outcome, _) = self.run_fault(fault, None).expect(UNCANCELLED);
        (fault.class, outcome)
    }

    /// [`Self::run_trial_classed_salted`] under an armed [`CancelToken`]:
    /// the token is polled at every issue boundary inside the trial, so a
    /// cancelled tenant campaign (or a draining service) stops mid-kernel
    /// instead of finishing a long trial first. Returns `None` when the
    /// trial was cut short by cancellation — the partial execution is
    /// discarded, never tallied, and the same trial re-runs in full on
    /// resume (preserving byte-identical tallies).
    #[must_use]
    pub fn run_trial_classed_cancellable(
        &self,
        trial: u64,
        salt: u32,
        cancel: &CancelToken,
    ) -> Option<(FaultClass, TrialOutcome)> {
        let fault = self.trial_fault_salted(trial, salt);
        self.run_fault(fault, Some(cancel))
            .map(|(outcome, _)| (fault.class, outcome))
    }

    /// The outcome of [`Self::run_trial_classed_salted`] plus fast-forward
    /// telemetry (snapshot resume point, executed instructions, early-exit
    /// flag).
    #[must_use]
    pub fn run_trial_telemetry_salted(
        &self,
        trial: u64,
        salt: u32,
    ) -> (TrialOutcome, TrialTelemetry) {
        self.run_fault(self.trial_fault_salted(trial, salt), None)
            .expect(UNCANCELLED)
    }

    /// Run one concrete fault through the fast-forward engine and classify
    /// the program-level outcome. `None` means `cancel` fired mid-trial:
    /// the partial outcome is meaningless and must be discarded.
    fn run_fault(
        &self,
        fault: FaultSpec,
        cancel: Option<&CancelToken>,
    ) -> Option<(TrialOutcome, TrialTelemetry)> {
        let t = self.cell.engine.run_trial(fault, self.fuel, cancel);
        if matches!(t.error, Some(ExecError::Cancelled { .. })) {
            return None;
        }
        let telemetry = TrialTelemetry {
            resumed_from: t.resumed_from,
            executed: t.executed,
            early_exit: t.converged_early,
            confined: t.confined.is_some(),
            bytes_cloned: t.bytes_cloned,
            cow_pages_cloned: t.cow_pages_cloned,
            cow_pages_total: t.cow_pages_total,
        };
        let outcome = if t.converged_early {
            // Post-strike state re-converged to a golden epoch state with
            // no detection pending, a barrier strike only reordered
            // independent warps, or the fault never fires: the rest of the
            // run replays golden, so the output will match (see DESIGN §9).
            TrialOutcome::Masked
        } else if let Some(e) = t.error {
            error_outcome(e)
        } else {
            detection_outcome(t.detection).unwrap_or_else(|| {
                // O(output-region) check against the CoW view — the
                // trial's memory must never be flattened here.
                let (addr, _) = self.cell.workload.output;
                if self.cell.engine.output_matches(&t, addr, &self.cell.golden) {
                    TrialOutcome::Masked
                } else {
                    TrialOutcome::Sdc
                }
            })
        };
        Some((outcome, telemetry))
    }

    /// The from-scratch reference trial: rebuild workload memory and execute
    /// the kernel from instruction 0 on the reference executor. Kept
    /// callable (mirroring `simulate_kernel_reference` in the timing model)
    /// as the differential-testing oracle for
    /// [`Self::run_trial_classed_salted`].
    #[must_use]
    pub fn run_trial_reference_salted(&self, trial: u64, salt: u32) -> TrialOutcome {
        let fault = self.trial_fault_salted(trial, salt);
        let mut mem = self.cell.workload.build_memory();
        let exec = Executor {
            config: ExecConfig {
                protection: self.cell.protection,
                fault: Some(fault),
                cta_limit: Some(1),
                fuel: Some(self.fuel),
                ..ExecConfig::default()
            },
        };
        match exec.run(&self.cell.kernel, self.cell.launch, &mut mem) {
            Ok(r) => detection_outcome(r.detection).unwrap_or_else(|| {
                if self.cell.workload.output_words(&mem) == self.cell.golden {
                    TrialOutcome::Masked
                } else {
                    TrialOutcome::Sdc
                }
            }),
            Err(e) => error_outcome(e),
        }
    }

    /// Run trials `[start, end)` (salt 0) with per-fault-class tallies;
    /// [`FaultClassTallies::aggregate`] gives the pooled tally.
    #[must_use]
    pub fn run_range_classed(&self, start: u64, end: u64) -> FaultClassTallies {
        let mut out = FaultClassTallies::default();
        for trial in start..end {
            let (class, outcome) = self.run_trial_classed_salted(trial, 0);
            out.record(class, outcome);
        }
        out
    }

    /// The fault-class mix this campaign draws from.
    #[must_use]
    pub fn mix(&self) -> FaultMix {
        self.mix
    }

    /// Run one fueled trial **through the recovery ladder** and classify the
    /// result. A `Recovered` outcome is only granted when the final output
    /// matches golden; a recovery path that completes with a wrong output is
    /// [`TrialOutcome::Miscorrected`] — recovery never silently launders a
    /// detection into a success.
    #[must_use]
    pub fn run_trial_recovering(&self, trial: u64, rcfg: &RecoveryConfig) -> RecoveredTrial {
        let fault = self.trial_fault_salted(trial, 0);
        let input = self.cell.workload.build_memory();
        let engine = RecoveryEngine {
            exec: ExecConfig {
                protection: self.cell.protection,
                fault: Some(fault),
                cta_limit: Some(1),
                fuel: Some(self.fuel),
                ..ExecConfig::default()
            },
            config: *rcfg,
        };
        let run = engine.run(&self.cell.kernel, self.cell.launch, &input);
        let outcome = match run.outcome {
            RecoveryOutcome::Recovered { policy, attempts } => {
                if self.cell.workload.output_words(&run.mem) == self.cell.golden {
                    TrialOutcome::Recovered { policy, attempts }
                } else {
                    TrialOutcome::Miscorrected
                }
            }
            // No recovery action fired: classify exactly like the plain path.
            RecoveryOutcome::Clean => {
                if self.cell.workload.output_words(&run.mem) == self.cell.golden {
                    TrialOutcome::Masked
                } else {
                    TrialOutcome::Sdc
                }
            }
            // Ladder exhausted: the residual detection (or watchdog error)
            // stands, bucketed as in the unrecovered campaign.
            RecoveryOutcome::Unrecoverable { .. } => detection_outcome(run.detection)
                .unwrap_or_else(|| run.error.map_or(TrialOutcome::Hang, error_outcome)),
        };
        RecoveredTrial {
            outcome,
            stats: run.stats,
        }
    }
}

/// The outcome a raised detection stands for; `None` when nothing was
/// detected and the output decides.
fn detection_outcome(detection: Detection) -> Option<TrialOutcome> {
    match detection {
        Detection::Trap { .. } => Some(TrialOutcome::Trap),
        Detection::Due { .. } => Some(TrialOutcome::Due),
        Detection::MemFault { .. } => Some(TrialOutcome::Crash),
        Detection::Hang { .. } => Some(TrialOutcome::Hang),
        Detection::None => None,
    }
}

/// The outcome of a run the executor aborted.
fn error_outcome(error: ExecError) -> TrialOutcome {
    match error {
        // Budget exhaustion and scheduler deadlock are both what the
        // driver watchdog sees as a hung kernel.
        ExecError::Hang { .. } | ExecError::Trap { .. } => TrialOutcome::Hang,
        // Structural errors cannot occur on a faulted run (memory
        // violations are trapped), but map conservatively.
        _ => TrialOutcome::Crash,
    }
}

/// The `expect` message of a trial run without a cancellation token.
const UNCANCELLED: &str = "uncancellable trial cannot be cancelled";

/// Outcome plus recovery accounting of one recovered trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveredTrial {
    /// Program-level classification (with `Recovered`/`Miscorrected` arms).
    pub outcome: TrialOutcome,
    /// Recovery work summed over the trial's attempts (drives the
    /// [`swapcodes_sim::timing::RecoveryCostModel`] overhead accounting).
    pub stats: RecoveryStats,
}

/// Run `trials` random single-bit pipeline faults against `workload` under
/// `scheme`, comparing outputs against a fault-free golden run.
///
/// # Panics
///
/// Panics if the scheme cannot be applied to the workload or the golden run
/// fails. Use [`ArchCampaign::prepare`] (or the checkpointing harness in
/// [`crate::harness`]) for structured error handling.
#[must_use]
pub fn arch_campaign(workload: &Workload, scheme: Scheme, trials: u32, seed: u64) -> ArchOutcomes {
    let campaign =
        ArchCampaign::prepare(workload, scheme, seed).expect("scheme applies to workload");
    campaign.run_range_classed(0, u64::from(trials)).aggregate()
}

#[cfg(test)]
mod tests {
    use super::*;
    use swapcodes_workloads::by_name;

    #[test]
    fn swapecc_has_full_coverage_on_matmul_sample() {
        let w = by_name("matmul").expect("matmul");
        let out = arch_campaign(&w, Scheme::SwapEcc, 12, 7);
        assert_eq!(out.total(), 12);
        assert_eq!(out.sdc, 0, "single-bit faults cannot escape SEC-DED");
    }

    #[test]
    fn baseline_exhibits_sdc() {
        let w = by_name("matmul").expect("matmul");
        let out = arch_campaign(&w, Scheme::Baseline, 24, 11);
        assert!(out.sdc > 0, "baseline should corrupt sometimes: {out:?}");
        assert_eq!(out.trap + out.due, 0);
        // Address faults may crash, which still counts as detected.
    }

    #[test]
    fn trials_are_pure_in_seed_and_index() {
        let w = by_name("kmeans").expect("kmeans");
        let c = ArchCampaign::prepare(&w, Scheme::SwapEcc, 42).expect("prepare");
        // Splitting the range must tally identically to one pass.
        let whole = c.run_range_classed(0, 10);
        let mut split = c.run_range_classed(0, 4);
        let rest = c.run_range_classed(4, 10);
        split.merge(&rest);
        assert_eq!(whole, split);
    }

    #[test]
    fn recovered_trials_convert_dues_without_sdc() {
        let w = by_name("matmul").expect("matmul");
        let c = ArchCampaign::prepare(&w, Scheme::SwapEcc, 7).expect("prepare");
        let rcfg = RecoveryConfig::default();
        let mut out = ArchOutcomes::default();
        for trial in 0..24 {
            let t = c.run_trial_recovering(trial, &rcfg);
            out.record(t.outcome);
        }
        assert_eq!(out.total(), 24);
        // The safe ladder (no storage correction) never invents an SDC.
        assert_eq!(out.miscorrected, 0);
        assert_eq!(out.sdc, 0, "single-bit faults cannot escape SEC-DED");
        assert!(
            out.recovered() > 0,
            "expected some DUE->recovered conversion: {out:?}"
        );
    }

    #[test]
    fn interthread_not_applicable_is_structured() {
        let w = by_name("matmul").expect("matmul");
        let err = ArchCampaign::prepare(&w, Scheme::InterThread { checked: true }, 0)
            .expect_err("matmul is not inter-thread transformable");
        assert_eq!(err, PrepError::NotApplicable);
    }
}
