//! Every call the benchmark makes into the repository's layers.
//!
//! The workload modules (`arch`, `serve`, `figures`) reach the library only
//! through this module, so an API change in a layer — for example splitting
//! `ArchCampaign` into a prepared cell with one trial API — has exactly one
//! place to adapt here.

use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

use swapcodes_bench::figures::{
    fig12_performance, fig13_instruction_bloat, fig14_power_energy, fig15_interthread,
    fig16_future_predictors,
};
use swapcodes_bench::{Cell, SweepEngine};
use swapcodes_core::{PredictorSet, Scheme};
use swapcodes_ecc::CodeKind;
use swapcodes_gates::units::{build_unit, UnitKind};
use swapcodes_gates::SiteCatalog;
use swapcodes_inject::gate::CampaignConfig;
use swapcodes_inject::{
    checkpoint_dir_from_env, default_thread_count, fuel_from_env, run_arch_shard_checkpointed,
    run_unit_campaign, sdc_risk, serve_workers_from_env, shard_timeout_ms_from_env,
    snapshot_interval_from_env, workload_operand_streams, ArchCampaign, CampaignOptions,
    CheckpointConfig, DetectionTally, FaultClassTallies, FaultMix, PrepError, ShardControl,
    ShardEvent, ShardRun, ShardSpec, TrialOutcome, TrialTelemetry, UnitCampaignResult,
};
use swapcodes_serve::{verify_gate, CampaignSpec, JobState, Service, ServiceConfig};
use swapcodes_sim::exec::{Detection, ExecConfig, Executor};
use swapcodes_sim::snapshot::CampaignEngine;
use swapcodes_sim::timing::{simulate_kernel_reference, KernelTiming, TimingConfig};
use swapcodes_sim::{CancelToken, FaultClass};
use swapcodes_workloads::{all, by_name, Workload};

/// One (workload × scheme) campaign cell of the arch-inproc and serve-ci
/// workloads.
#[derive(Debug, Clone, Copy)]
pub struct CellId {
    /// Metric-name label, e.g. `matmul-swapecc`.
    pub label: &'static str,
    /// Workload name in the suite registry.
    pub workload: &'static str,
    /// Scheme label as the campaign-spec parser accepts it.
    pub scheme_label: &'static str,
    /// The protection scheme.
    pub scheme: Scheme,
}

/// The four campaign cells: the two Swap-ECC cells bracket trial cost
/// (matmul is the slowest control-fault cell, hspot the fastest), kmeans
/// under SW-Dup is where fast-forwarding helps least, and bprop under
/// Pre MAD exercises a Swap-Predict transform.
pub const CELLS: [CellId; 4] = [
    CellId {
        label: "matmul-swapecc",
        workload: "matmul",
        scheme_label: "swap-ecc",
        scheme: Scheme::SwapEcc,
    },
    CellId {
        label: "kmeans-swdup",
        workload: "kmeans",
        scheme_label: "sw-dup",
        scheme: Scheme::SwDup,
    },
    CellId {
        label: "hspot-swapecc",
        workload: "hspot",
        scheme_label: "swap-ecc",
        scheme: Scheme::SwapEcc,
    },
    CellId {
        label: "bprop-premad",
        workload: "bprop",
        scheme_label: "pre-mad",
        scheme: Scheme::SwapPredict(PredictorSet::MAD),
    },
];

/// Fault-class labels in [`FaultClassTallies::classes`] order.
pub const CLASSES: [&str; 3] = ["transient", "control", "stuckat"];

/// The index into [`CLASSES`] of a drawn fault class.
pub fn class_index(class: FaultClass) -> usize {
    match class {
        FaultClass::Transient => 0,
        FaultClass::Control(_) => 1,
        FaultClass::StuckAt(_) => 2,
    }
}

/// The environment-derived settings the measured program will use, after
/// `SWAPCODES_*` has been cleared: what `prepare_with`, the service workers
/// and the thread pools read.
pub fn effective_settings() -> String {
    let o = CampaignOptions::from_env();
    let or_default = |v: Option<String>, d: &str| v.unwrap_or_else(|| format!("default ({d})"));
    format!(
        "exec_tier={:?} fault_mix_env={} cow_page_words={} fuel={} snapshot_interval={} \
         threads={} serve_workers={} shard_timeout_ms={} checkpoint_dir={}",
        o.tier,
        o.mix.tag(),
        o.cow_page_words,
        or_default(fuel_from_env().map(|v| v.to_string()), "8x golden + 10000"),
        or_default(
            snapshot_interval_from_env().map(|v| v.to_string()),
            "golden / 32, at least 512"
        ),
        default_thread_count(),
        or_default(serve_workers_from_env().map(|v| v.to_string()), "4"),
        or_default(shard_timeout_ms_from_env().map(|v| v.to_string()), "5000"),
        or_default(
            checkpoint_dir_from_env().map(|p| p.display().to_string()),
            "none"
        ),
    )
}

// ---------------------------------------------------------------------------
// workloads
// ---------------------------------------------------------------------------

/// The suite workload behind a cell.
pub fn workload(cell: &CellId) -> Workload {
    by_name(cell.workload).expect("cell workloads are registered")
}

/// Every workload of the suite (the figures' rows).
pub fn suite() -> Vec<Workload> {
    all()
}

// ---------------------------------------------------------------------------
// inject::arch
// ---------------------------------------------------------------------------

/// Campaign options under the mixed `"all"` fault mix, built the way the
/// service workers build theirs.
pub fn mixed_options() -> CampaignOptions {
    CampaignOptions {
        mix: FaultMix::all_classes(),
        ..CampaignOptions::from_env()
    }
}

/// `ArchCampaign::prepare_with` under [`mixed_options`].
pub fn prepare<'w>(
    w: &'w Workload,
    cell: &CellId,
    seed: u64,
) -> Result<ArchCampaign<'w>, PrepError> {
    ArchCampaign::prepare_with(w, cell.scheme, seed, mixed_options())
}

/// One long `run_range_classed` over trials `[start, end)`.
pub fn run_range(c: &ArchCampaign<'_>, start: u64, end: u64) -> FaultClassTallies {
    c.run_range_classed(start, end)
}

/// The fault drawn for a trial (`trial_fault_salted`, salt 0).
pub fn fault_class(c: &ArchCampaign<'_>, trial: u64) -> FaultClass {
    c.trial_fault_salted(trial, 0).class
}

/// One production trial with its fast-forward telemetry.
pub fn trial_telemetry(c: &ArchCampaign<'_>, trial: u64) -> (TrialOutcome, TrialTelemetry) {
    c.run_trial_telemetry_salted(trial, 0)
}

/// One production trial, classed.
pub fn trial(c: &ArchCampaign<'_>, trial: u64) -> (FaultClass, TrialOutcome) {
    c.run_trial_classed_salted(trial, 0)
}

/// The same trial on the from-scratch reference executor.
pub fn trial_reference(c: &ArchCampaign<'_>, trial: u64) -> TrialOutcome {
    c.run_trial_reference_salted(trial, 0)
}

/// Golden dynamic-instruction count of a prepared campaign.
pub fn golden_dynamic(c: &ArchCampaign<'_>) -> u64 {
    c.golden_dynamic()
}

/// Host time of each step `prepare_with` takes, obtained by repeating those
/// steps through the same public calls and configurations.
#[derive(Debug, Clone, Copy, Default)]
pub struct PreparePhases {
    /// `swapcodes_core::apply` (the scheme transform).
    pub apply: Duration,
    /// `swapcodes_core::peephole`.
    pub peephole: Duration,
    /// The reference golden `Executor::run`.
    pub golden: Duration,
    /// `CampaignEngine::capture_config`: predecode, tier-2 compile, epoch
    /// ladder.
    pub capture: Duration,
    /// `SiteCatalog::from_netlist` over the FxP MAD unit (with its build).
    pub site_catalog: Duration,
}

/// Repeat the steps of `prepare_with` for one cell and time each.
///
/// # Panics
///
/// When the cell does not prepare — the timed `prepare_with` has already
/// succeeded on it, so that is a broken benchmark.
pub fn prepare_phases(w: &Workload, cell: &CellId) -> PreparePhases {
    let options = mixed_options();
    let mut p = PreparePhases::default();
    let t = Instant::now();
    let tr = swapcodes_core::apply(cell.scheme, &w.kernel, w.launch).expect("cell transforms");
    p.apply = t.elapsed();
    let t = Instant::now();
    let (kernel, _) = swapcodes_core::peephole(&tr.kernel);
    p.peephole = t.elapsed();
    let t = Instant::now();
    let mut mem = w.build_memory();
    let exec = Executor {
        config: ExecConfig {
            protection: tr.protection,
            cta_limit: Some(1),
            ..ExecConfig::default()
        },
    };
    let gout = exec
        .run(&kernel, tr.launch, &mut mem)
        .expect("golden run succeeds");
    assert_eq!(gout.detection, Detection::None, "golden run is clean");
    p.golden = t.elapsed();
    let t = Instant::now();
    let interval = (gout.dynamic_instructions / 32).max(512);
    let captured = CampaignEngine::capture_config(
        &kernel,
        tr.launch,
        tr.protection,
        &w.build_memory(),
        interval,
        &ExecConfig {
            tier: options.tier,
            cow_page_words: options.cow_page_words,
            ..ExecConfig::default()
        },
    )
    .expect("capture succeeds");
    p.capture = t.elapsed();
    std::hint::black_box(captured);
    let t = Instant::now();
    std::hint::black_box(SiteCatalog::from_netlist(
        build_unit(UnitKind::FxpMad32).netlist(),
    ));
    p.site_catalog = t.elapsed();
    p
}

// ---------------------------------------------------------------------------
// serve and inject::harness
// ---------------------------------------------------------------------------

/// Trials per serve-ci job and per shard (the CI shard size of the
/// `campaign_service` acceptance run).
pub const JOB_TRIALS: u64 = 48;
/// Trials per shard.
pub const SHARD_TRIALS: u64 = 16;
/// Service worker-pool size.
pub const SERVE_WORKERS: usize = 2;
/// Trials between shard checkpoint flushes (the service default).
pub const CHECKPOINT_INTERVAL: u64 = 16;

/// The campaign spec of one serve-ci job.
pub fn job_spec(cell: &CellId, seed: u64) -> String {
    format!(
        "{{\"name\":\"perfbench\",\"workloads\":[\"{}\"],\"schemes\":[\"{}\"],\
         \"fault_mix\":\"all\",\"trials\":{JOB_TRIALS},\"seed\":{seed},\
         \"shard_trials\":{SHARD_TRIALS}}}",
        cell.workload, cell.scheme_label
    )
}

/// `Service::start` with 2 workers persisting under `dir`.
pub fn start_service(dir: &Path) -> Service {
    Service::start(ServiceConfig {
        workers: SERVE_WORKERS,
        shard_timeout_ms: 5_000,
        max_attempts: 4,
        backoff_base_ms: 10,
        checkpoint_interval: CHECKPOINT_INTERVAL,
        dir: Some(dir.to_path_buf()),
        chaos: None,
    })
}

/// `Service::submit`.
pub fn submit(service: &Service, spec: &str) -> u64 {
    service
        .submit(spec)
        .expect("benchmark specs are admissible")
}

/// Whether a job has settled; one board read, no sleeping.
pub fn settled(service: &Service, id: u64) -> bool {
    service.with_board(|b| b.job_index(id).is_some_and(|i| b.jobs[i].is_settled()))
}

/// Jobs on the board (resumed ones included).
pub fn job_count(service: &Service) -> usize {
    service.with_board(|b| b.jobs.len())
}

/// A settled job's outcome as the service reports it.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// Whether the job completed every shard.
    pub completed: bool,
    /// Shard attempts the job requeued.
    pub requeues: u64,
    /// Merged tallies of the job's single cell.
    pub tallies: FaultClassTallies,
}

/// The merged outcome of job `id`.
pub fn job_report(service: &Service, id: u64) -> JobReport {
    service.with_board(|b| {
        let job = &b.jobs[b.job_index(id).expect("submitted job is on the board")];
        JobReport {
            completed: job.state == JobState::Completed,
            requeues: job.requeues,
            tallies: job.cells[0].merged().0,
        }
    })
}

/// Shard attempts the service requeued since it started.
pub fn requeued(service: &Service) -> u64 {
    service.metrics().requeued
}

/// The static verify gate `Service::submit` runs.
pub fn gate(spec: &str) {
    let spec = CampaignSpec::parse(spec).expect("benchmark specs parse");
    verify_gate(&spec).expect("benchmark cells verify clean");
}

/// Host-time breakdown of one shard run outside the service.
#[derive(Debug, Clone, Default)]
pub struct ShardTimes {
    /// `prepare_with` of the shard's cell.
    pub prepare: Duration,
    /// `run_arch_shard_checkpointed`.
    pub run: Duration,
    /// Gap from the last `Trial` event to each `Checkpointed` event.
    pub checkpoint_gaps: Vec<Duration>,
    /// The shard's tallies.
    pub tallies: FaultClassTallies,
    /// Whether the shard ran to its end.
    pub finished: bool,
}

/// Prepare a cell and run one shard of it through
/// `run_arch_shard_checkpointed`, as a service worker does (cancellable
/// trials, fsync'd checkpoints under `dir`).
pub fn run_shard(
    w: &Workload,
    cell: &CellId,
    seed: u64,
    shard: ShardSpec,
    dir: &Path,
) -> ShardTimes {
    let t = Instant::now();
    let campaign = prepare(w, cell, seed).expect("cell prepares");
    let prepare = t.elapsed();
    let ck = CheckpointConfig {
        dir: Some(dir.to_path_buf()),
        interval: CHECKPOINT_INTERVAL,
        max_retries: 3,
        stop_after: None,
    };
    let cancel = CancelToken::new();
    let mut last_trial = Instant::now();
    let mut checkpoint_gaps = Vec::new();
    let t = Instant::now();
    let run: ShardRun = run_arch_shard_checkpointed(&campaign, &shard, &ck, Some(&cancel), |ev| {
        match ev {
            ShardEvent::Trial { .. } => last_trial = Instant::now(),
            ShardEvent::Checkpointed { .. } => checkpoint_gaps.push(last_trial.elapsed()),
            ShardEvent::Adopted { .. } => {}
        }
        ShardControl::Continue
    });
    ShardTimes {
        prepare,
        run: t.elapsed(),
        checkpoint_gaps,
        tallies: run.classes,
        finished: run.finished,
    }
}

/// A shard of a serve-ci job.
pub fn shard_spec(tag: String, index: u64) -> ShardSpec {
    ShardSpec {
        tag,
        start: index * SHARD_TRIALS,
        end: ((index + 1) * SHARD_TRIALS).min(JOB_TRIALS),
    }
}

// ---------------------------------------------------------------------------
// bench::sweep (Figs. 12-16), sim::timing
// ---------------------------------------------------------------------------

/// Threads of the figures workload: the two CPUs the benchmark is sized for.
pub const FIGURE_THREADS: usize = 2;

/// A fresh, cold sweep engine.
pub fn sweep_engine() -> SweepEngine {
    SweepEngine::with_threads(FIGURE_THREADS)
}

/// Renders one figure from a sweep engine, printing its table.
pub type Render = fn(&SweepEngine);

/// The timing-sweep figures in regeneration order.
pub const SWEEP_FIGURES: [(&str, Render); 5] = [
    ("fig12", fig12_performance),
    ("fig13", fig13_instruction_bloat),
    ("fig14", fig14_power_energy),
    ("fig15", fig15_interthread),
    ("fig16", fig16_future_predictors),
];

/// Cells the engine holds across its three caches.
pub fn cached_cells(engine: &SweepEngine) -> usize {
    engine.cached_cells()
}

/// Cells the engine recorded as `Cell::Failed`.
pub fn failed_cells(engine: &SweepEngine) -> usize {
    engine.failures().len()
}

/// The timing cells Figs. 12, 15 and 16 walk (every suite workload under
/// these schemes), as `swapcodes_bench::figures` defines them.
pub fn timing_schemes() -> Vec<Scheme> {
    let mut v = vec![Scheme::Baseline];
    for s in Scheme::figure12_sweep()
        .into_iter()
        .chain([
            Scheme::InterThread { checked: true },
            Scheme::InterThread { checked: false },
        ])
        .chain(Scheme::figure16_sweep())
    {
        if !v.contains(&s) {
            v.push(s);
        }
    }
    v
}

/// The profile cells of Fig. 13 (every suite workload).
pub fn profile_schemes() -> Vec<Scheme> {
    Scheme::figure12_sweep()
}

/// The traced cells of Fig. 14.
pub fn trace_cells() -> (Vec<&'static str>, Vec<Scheme>) {
    (
        vec!["snap", "lavaMD"],
        vec![
            Scheme::Baseline,
            Scheme::SwDup,
            Scheme::SwapEcc,
            Scheme::SwapPredict(PredictorSet::MAD),
        ],
    )
}

/// A cached (or freshly computed) timing cell of the engine.
pub fn engine_timing(engine: &SweepEngine, w: &Workload, s: Scheme) -> Option<KernelTiming> {
    engine.timing(w, s).value().copied()
}

/// `swapcodes_bench::measure`: one timing cell from scratch.
pub fn measure(w: &Workload, s: Scheme) -> Option<KernelTiming> {
    match swapcodes_bench::measure(w, s) {
        Cell::Value(t) => Some(t),
        _ => None,
    }
}

/// `swapcodes_bench::profile`: one profile cell from scratch.
pub fn profile(w: &Workload, s: Scheme) -> bool {
    std::hint::black_box(swapcodes_bench::profile(w, s)).is_value()
}

/// `swapcodes_bench::traces_for`: one traces cell given its timing.
pub fn traces(w: &Workload, s: Scheme, timing: &KernelTiming) -> bool {
    std::hint::black_box(swapcodes_bench::traces_for(w, s, timing)).is_value()
}

/// One timing cell on the from-scratch reference replay
/// (`simulate_kernel_reference`); `None` when the scheme does not apply.
pub fn timing_reference(w: &Workload, s: Scheme) -> Option<KernelTiming> {
    let t = swapcodes_core::apply(s, &w.kernel, w.launch).ok()?;
    let mut mem = w.build_memory();
    simulate_kernel_reference(&t.kernel, t.launch, &mut mem, &TimingConfig::default()).ok()
}

// ---------------------------------------------------------------------------
// inject::trace, inject::gate, gates, ecc (Figs. 10-11)
// ---------------------------------------------------------------------------

/// Inputs per unit campaign (the paper's 10,000).
pub const UNIT_INPUTS: usize = 10_000;

/// The six pipelined units with their metric labels.
pub const UNITS: [(&str, UnitKind); 6] = [
    ("fxpadd32", UnitKind::FxpAdd32),
    ("fxpmad32", UnitKind::FxpMad32),
    ("fpadd32", UnitKind::FpAdd32),
    ("fpfma32", UnitKind::FpFma32),
    ("fpadd64", UnitKind::FpAdd64),
    ("fpfma64", UnitKind::FpFma64),
];

/// Operand streams traced from the suite, capped at [`UNIT_INPUTS`] per
/// unit (the Fig. 10/11 benches' parameters).
pub fn operand_streams(suite: &[Workload]) -> HashMap<UnitKind, Vec<[u64; 3]>> {
    workload_operand_streams(suite, UNIT_INPUTS, 4_000_000)
}

/// One gate-level unit campaign (netlist build included).
pub fn unit_campaign(
    kind: UnitKind,
    inputs: &[[u64; 3]],
    seed: u64,
    threads: usize,
) -> UnitCampaignResult {
    let unit = build_unit(kind);
    run_unit_campaign(
        &unit,
        inputs,
        &CampaignConfig {
            seed,
            threads: Some(threads),
            ..CampaignConfig::default()
        },
    )
}

/// Fig. 11: `sdc_risk` of every unit's records under every code of
/// `CodeKind::figure11_sweep()`, code-major.
pub fn sdc_risks(results: &[UnitCampaignResult]) -> Vec<DetectionTally> {
    CodeKind::figure11_sweep()
        .into_iter()
        .flat_map(|code| results.iter().map(move |r| sdc_risk(r, code)))
        .collect()
}
