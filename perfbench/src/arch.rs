//! `arch-inproc`: in-process architecture-level campaigns on one thread.
//!
//! Set-up prepares the four cells (`prepare_with` under the mixed fault
//! mix). The timed phase runs jobs back to back; a job is one
//! `run_range_classed` of [`JOB_TRIALS`] fresh trials on each cell, and a
//! pass is [`JOBS_PER_PASS`] jobs. Trial execution dominates: prepare is
//! paid once, outside the timed phase. The workload bypasses the service,
//! gate-level evaluation and the timing model. The host-speed probe (see
//! `host`) runs between set-ups and between jobs.

use std::time::Instant;

use swapcodes_inject::{ArchCampaign, FaultClassTallies};

use crate::host::HostSpeed;
use crate::layers::{self, class_index, CELLS, CLASSES};
use crate::trace::{mean, median, Tracer};
use crate::{derive_seed, peak_rss_mb, EndToEnd, Report, RunConfig};

/// Trials per `run_range_classed` call; a job is one call per cell. Small
/// enough that a run holds over a hundred jobs, so the p90 has ten samples
/// beyond it.
const JOB_TRIALS: u64 = 64;
/// Jobs per pass: a pass runs 1024 trials on every cell.
const JOBS_PER_PASS: u64 = 16;
/// Times set-up is repeated; `setup_s` is the median. The allocator takes
/// a few repetitions to settle, so the median needs many.
const SETUP_REPS: usize = 25;
/// Trials per cell re-run on the from-scratch reference executor.
const CHECK_TRIALS: u64 = 8;

/// Fast-forward telemetry summed over the traced trials of one
/// (cell, class).
#[derive(Debug, Default, Clone, Copy)]
struct Telemetry {
    trials: u64,
    executed: u64,
    early_exits: u64,
    bytes_cloned: u64,
}

/// One timed phase: its end-to-end figures, the tallies of every job and
/// the telemetry summed per (cell, class).
struct Phase {
    e2e: EndToEnd,
    tallies: Vec<[FaultClassTallies; 4]>,
    telemetry: [[Telemetry; 3]; 4],
}

pub fn run(rc: &RunConfig, mut tracer: Option<&mut Tracer>) -> Report {
    let workloads: Vec<_> = CELLS.iter().map(layers::workload).collect();
    let seeds: Vec<u64> = (0..CELLS.len() as u64)
        .map(|i| derive_seed(rc.seed, 0xA4C0 + i))
        .collect();

    let mut host = HostSpeed::new(1);
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut campaigns = Vec::new();
    for rep in 0..SETUP_REPS as u64 {
        campaigns.clear();
        host.sample();
        let t = Instant::now();
        for (i, cell) in CELLS.iter().enumerate() {
            let tc = Instant::now();
            campaigns.push(layers::prepare(&workloads[i], cell, seeds[i]).expect("cell prepares"));
            if let Some(tr) = tracer.as_deref_mut() {
                tr.end("inject.arch.prepare", cell.label, rep, tc);
            }
        }
        setup_s.push(t.elapsed().as_secs_f64());
    }
    host.sample();
    let setup_host = host.take_factor();

    let mut untraced = timed_phase(&campaigns, rc.seconds, &mut host, None);
    untraced.e2e.peak_rss_mb = peak_rss_mb();
    untraced.e2e.setup_s = setup_s.clone();
    untraced.e2e.setup_host = setup_host;
    let mut report = Report {
        base: "trials run plus reference-checked trials".into(),
        ..Report::default()
    };
    let mut failed = 0;

    if let Some(tr) = tracer {
        report.layers = prepare_layers(&workloads, tr);
        let mut traced = timed_phase(&campaigns, rc.seconds, &mut host, Some(tr));
        traced.e2e.setup_s = setup_s;
        traced.e2e.setup_host = setup_host;
        report.layers.extend(trial_layers(&traced, &campaigns, tr));
        // The traced phase reruns the same trial ranges through the
        // per-trial API: its tallies must match `run_range_classed`.
        for (p, (a, b)) in untraced.tallies.iter().zip(&traced.tallies).enumerate() {
            if a != b {
                println!("perfbench: CHECK FAILED: traced job {p} tallies differ from untraced");
                failed += 1;
            }
        }
        report.attempted += traced.e2e.trials;
        report.traced = Some(traced.e2e);
    }

    // Output check, outside the timed phases: a seed-chosen sample of
    // job-0 trials must classify identically on the reference executor.
    for (i, c) in campaigns.iter().enumerate() {
        for k in 0..CHECK_TRIALS {
            let trial = derive_seed(seeds[i], k) % JOB_TRIALS;
            let (_, fast) = layers::trial(c, trial);
            let reference = layers::trial_reference(c, trial);
            if fast != reference {
                println!(
                    "perfbench: CHECK FAILED: {} trial {trial}: production {fast:?}, reference {reference:?}",
                    CELLS[i].label
                );
                failed += 1;
            }
        }
    }
    for (j, job) in untraced.tallies.iter().enumerate() {
        if job.iter().any(|t| t.total() != JOB_TRIALS) {
            println!("perfbench: CHECK FAILED: job {j} tallied the wrong trial count");
            failed += 1;
        }
    }
    report.attempted += untraced.e2e.trials + CHECK_TRIALS * CELLS.len() as u64;
    report.failed = failed;
    report.outputs = CELLS
        .iter()
        .zip(&untraced.tallies[0])
        .map(|(cell, t)| format!("{} {t:?}\n", cell.label))
        .collect();
    report.untraced = untraced.e2e;
    report
}

/// Run jobs until `seconds` have elapsed, stopping on a whole pass so
/// every cell contributes the same number of trials to each pass. A pass's
/// time is the sum of its job times.
fn timed_phase(
    campaigns: &[ArchCampaign<'_>],
    seconds: f64,
    host: &mut HostSpeed,
    mut tracer: Option<&mut Tracer>,
) -> Phase {
    let mut e2e = EndToEnd::default();
    let mut tallies = Vec::new();
    let mut telemetry = [[Telemetry::default(); 3]; 4];
    let trials_per_job = JOB_TRIALS * campaigns.len() as u64;
    let start = Instant::now();
    let mut pass_s = 0.0;
    let mut job = 0u64;
    host.sample();
    loop {
        let t_job = Instant::now();
        let (lo, hi) = (job * JOB_TRIALS, (job + 1) * JOB_TRIALS);
        let mut row = [FaultClassTallies::default(); 4];
        for (i, c) in campaigns.iter().enumerate() {
            row[i] = match tracer.as_deref_mut() {
                None => layers::run_range(c, lo, hi),
                Some(tr) => traced_range(c, i, lo, hi, job, tr, &mut telemetry[i]),
            };
        }
        let job_s = t_job.elapsed().as_secs_f64();
        host.sample();
        e2e.jobs_ms.push(job_s * 1e3);
        e2e.rates.push(trials_per_job as f64 / job_s);
        e2e.trials += trials_per_job;
        tallies.push(row);
        pass_s += job_s;
        job += 1;
        if job.is_multiple_of(JOBS_PER_PASS) {
            e2e.passes_s.push(pass_s);
            pass_s = 0.0;
            if start.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
    }
    e2e.host = host.take_factor();
    Phase {
        e2e,
        tallies,
        telemetry,
    }
}

/// The traced equivalent of one `run_range_classed`: each trial's fault
/// draw and execution are spans, and its telemetry is summed per class.
fn traced_range(
    c: &ArchCampaign<'_>,
    cell: usize,
    lo: u64,
    hi: u64,
    job: u64,
    tr: &mut Tracer,
    telemetry: &mut [Telemetry; 3],
) -> FaultClassTallies {
    let label = CELLS[cell].label;
    let mut tallies = FaultClassTallies::default();
    for trial in lo..hi {
        let t = Instant::now();
        let class = layers::fault_class(c, trial);
        tr.end("inject.arch.fault_draw", label, job, t);
        let t = Instant::now();
        let (outcome, tel) = layers::trial_telemetry(c, trial);
        let k = class_index(class);
        tr.end_class("inject.arch.trial", label, CLASSES[k], job, t);
        tallies.record(class, outcome);
        let acc = &mut telemetry[k];
        acc.trials += 1;
        acc.executed += tel.executed;
        acc.early_exits += u64::from(tel.early_exit);
        acc.bytes_cloned += tel.bytes_cloned;
    }
    tallies
}

/// Prepare sub-phases per cell, from repeating the steps of `prepare_with`
/// [`SETUP_REPS`] times. `prepare_other_ms` is the median `prepare_with`
/// span minus the medians of the sub-phases, so the reported parts sum to
/// the reported whole.
fn prepare_layers(
    workloads: &[swapcodes_workloads::Workload],
    tr: &mut Tracer,
) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut phases = Vec::new();
    for (i, cell) in CELLS.iter().enumerate() {
        let reps: Vec<_> = (0..SETUP_REPS)
            .map(|_| layers::prepare_phases(&workloads[i], cell))
            .collect();
        for (rep, p) in reps.iter().enumerate() {
            let now = Instant::now();
            for (name, d) in [
                ("core.apply", p.apply),
                ("core.peephole", p.peephole),
                ("sim.golden", p.golden),
                ("sim.capture", p.capture),
                ("gates.site_catalog", p.site_catalog),
            ] {
                tr.push(name, cell.label, "", rep as u64, now, d);
            }
        }
        phases.push(reps);
    }
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    let site_catalog = median(
        &phases
            .iter()
            .flatten()
            .map(|p| ms(p.site_catalog))
            .collect::<Vec<_>>(),
    );
    out.push(("gates.site_catalog_ms".into(), site_catalog));
    for (cell, reps) in CELLS.iter().zip(&phases) {
        let m = |f: fn(&layers::PreparePhases) -> std::time::Duration| {
            median(&reps.iter().map(|p| ms(f(p))).collect::<Vec<_>>())
        };
        let parts = [
            ("core.apply_ms", m(|p| p.apply)),
            ("core.peephole_ms", m(|p| p.peephole)),
            ("sim.golden_ms", m(|p| p.golden)),
            ("sim.capture_ms", m(|p| p.capture)),
        ];
        let prepare = median(&tr.ms("inject.arch.prepare", cell.label));
        let covered: f64 = parts.iter().map(|(_, v)| v).sum::<f64>() + site_catalog;
        for (stem, v) in parts {
            out.push((format!("{stem}.{}", cell.label), v));
        }
        out.push((format!("inject.arch.prepare_ms.{}", cell.label), prepare));
        out.push((
            format!("inject.arch.prepare_other_ms.{}", cell.label),
            prepare - covered,
        ));
    }
    out
}

/// Per-trial metrics of the traced phase.
fn trial_layers(phase: &Phase, campaigns: &[ArchCampaign<'_>], tr: &Tracer) -> Vec<(String, f64)> {
    let mut out = vec![(
        "inject.arch.fault_draw_us".to_owned(),
        mean(&tr.ms("inject.arch.fault_draw", "")) * 1e3,
    )];
    let mut class_trials = [0u64; 3];
    for (i, cell) in CELLS.iter().enumerate() {
        let golden = layers::golden_dynamic(&campaigns[i]) as f64;
        let (mut cell_ms, mut cell_executed, mut cell_trials, mut cell_bytes) =
            (0.0, 0u64, 0u64, 0u64);
        for (k, class) in CLASSES.iter().enumerate() {
            let t = phase.telemetry[i][k];
            let ms = tr.ms_class("inject.arch.trial", cell.label, class);
            let n = t.trials.max(1) as f64;
            out.push((
                format!("inject.arch.trial_us.{}.{class}", cell.label),
                mean(&ms) * 1e3,
            ));
            out.push((
                format!("sim.executed_frac.{}.{class}", cell.label),
                t.executed as f64 / (n * golden),
            ));
            out.push((
                format!("sim.early_exit_rate.{}.{class}", cell.label),
                t.early_exits as f64 / n,
            ));
            cell_ms += ms.iter().sum::<f64>();
            cell_executed += t.executed;
            cell_trials += t.trials;
            cell_bytes += t.bytes_cloned;
            class_trials[k] += t.trials;
        }
        out.push((
            format!("sim.us_per_kinstr.{}", cell.label),
            cell_ms * 1e3 / (cell_executed.max(1) as f64 / 1e3),
        ));
        out.push((
            format!("sim.bytes_cloned_per_trial.{}", cell.label),
            cell_bytes as f64 / cell_trials.max(1) as f64,
        ));
    }
    let total: u64 = class_trials.iter().sum();
    assert_eq!(
        total, phase.e2e.trials,
        "per-class trial counts sum to the trials run"
    );
    out.push(("inject.arch.trials".into(), total as f64));
    for (class, n) in CLASSES.iter().zip(class_trials) {
        out.push((format!("inject.arch.trials.{class}"), n as f64));
    }
    out
}
