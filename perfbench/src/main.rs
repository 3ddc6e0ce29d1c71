//! Layered host-time benchmark of the SwapCodes reproduction.
//!
//! ```text
//! perfbench --workload <arch-inproc|serve-ci|figures> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload runs in this one process through the public entry points
//! of the layers it exercises (all reached through `layers`):
//!
//! * `arch-inproc` — four architecture-level campaign cells prepared once,
//!   then repeated passes of one long `run_range_classed` per cell on one
//!   thread, under the mixed fault mix;
//! * `serve-ci` — a closed loop with one client against the campaign
//!   service (2 workers, on-disk checkpoints): 48-trial jobs in 16-trial
//!   shards, one cell per job, the next job submitted when the last settles;
//! * `figures` — a cold regeneration of Figs. 10–16 on 2 threads, repeated.
//!
//! All metrics are host time, counts or memory. Simulated statistics
//! (tallies, cycles, error patterns) are outputs: they are checked and
//! folded into a digest, never reported as metrics. The end-to-end times
//! are corrected for the host's drifting speed by a probe sampled between
//! the measured intervals (see `host`); per-layer times are raw.
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics.
//! With `--trace 1` the run measures the untraced timed phase, then the
//! same phase again with spans recorded around every layer call, and the
//! last line carries the per-layer metrics (0 for layers the workload does
//! not exercise) and the tracing overhead. Output checks run outside the
//! timed phases; any mismatch makes the run exit non-zero.

mod arch;
mod figures;
mod host;
mod layers;
mod serve;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use host::HostFactor;
use trace::{median, quantile, Tracer};

/// What one run was asked to do.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload seed; every input the program sees derives from it.
    pub seed: u64,
    /// Length of each timed phase.
    pub seconds: f64,
    /// Directory for this run's checkpoints and span dump, inside the
    /// benchmark's own directory.
    pub out_dir: PathBuf,
}

/// End-to-end figures of one timed phase, as measured; [`Self::metrics`]
/// applies the host-speed factors.
#[derive(Debug, Clone, Default)]
pub struct EndToEnd {
    /// Set-up time samples in seconds (the metric is their median).
    pub setup_s: Vec<f64>,
    /// Host-speed factor of the set-up.
    pub setup_host: HostFactor,
    /// Injection trials completed in the phase.
    pub trials: u64,
    /// Trials per second of each throughput sample: a job on arch-inproc,
    /// a rotation over the cells on serve-ci, a regeneration on figures.
    pub rates: Vec<f64>,
    /// Latency of every job of the phase, in milliseconds.
    pub jobs_ms: Vec<f64>,
    /// Time of every complete pass over the workload's result set, in
    /// seconds: the sum of its measured parts, probes and trace-only work
    /// excluded.
    pub passes_s: Vec<f64>,
    /// Host-speed factor of the phase.
    pub host: HostFactor,
    /// Peak resident memory at the end of the phase, in MiB.
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    /// The end-to-end metrics shared by every workload, in
    /// `BENCHMARK.json` order, with `correct` applying the host-speed
    /// factors or not.
    fn metrics(&self, correct: bool) -> Vec<(String, f64, &'static str)> {
        let (setup, phase) = if correct {
            (self.setup_host.factor, self.host.factor)
        } else {
            (1.0, 1.0)
        };
        vec![
            ("setup_s".into(), median(&self.setup_s) * setup, "s"),
            ("trials_per_s".into(), median(&self.rates) / phase, "trials/s"),
            ("job_ms_p50".into(), median(&self.jobs_ms) * phase, "ms"),
            ("job_ms_p90".into(), quantile(&self.jobs_ms, 0.9) * phase, "ms"),
            ("figures_s".into(), median(&self.passes_s) * phase, "s"),
            ("peak_rss_mb".into(), self.peak_rss_mb, "MiB"),
        ]
    }
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Report {
    /// The untraced timed phase.
    pub untraced: EndToEnd,
    /// The traced repeat of the timed phase (trace runs only).
    pub traced: Option<EndToEnd>,
    /// Per-layer metrics the workload measured (trace runs only).
    pub layers: Vec<(String, f64)>,
    /// Operations attempted: trials, jobs, cells and checks.
    pub attempted: u64,
    /// Operations that errored, degraded or failed a check.
    pub failed: u64,
    /// What `attempted` counts.
    pub base: String,
    /// Canonical text of the simulated outputs of the first pass.
    pub outputs: String,
}

const WORKLOADS: [&str; 3] = ["arch-inproc", "serve-ci", "figures"];

/// End-to-end metrics whose traced ÷ untraced ratio a traced run reports
/// (set-up is traced only in part, and memory is not a time).
const OVERHEAD_METRICS: [&str; 4] = ["trials_per_s", "job_ms_p50", "job_ms_p90", "figures_s"];

/// Every per-layer metric with its unit, in `BENCHMARK.json` order. A
/// traced run prints all of them, with 0 for a layer its workload does not
/// exercise.
pub fn per_layer_catalog() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let cells = layers::CELLS.map(|c| c.label);
    for stem in [
        "core.apply_ms",
        "core.peephole_ms",
        "sim.golden_ms",
        "sim.capture_ms",
        "inject.arch.prepare_ms",
        "inject.arch.prepare_other_ms",
    ] {
        v.extend(cells.iter().map(|c| (format!("{stem}.{c}"), "ms")));
    }
    v.push(("gates.site_catalog_ms".into(), "ms"));
    v.push(("inject.arch.fault_draw_us".into(), "us"));
    for (stem, unit) in [
        ("inject.arch.trial_us", "us"),
        ("sim.executed_frac", "ratio"),
        ("sim.early_exit_rate", "ratio"),
    ] {
        for c in cells {
            v.extend(
                layers::CLASSES
                    .iter()
                    .map(|k| (format!("{stem}.{c}.{k}"), unit)),
            );
        }
    }
    v.extend(
        cells
            .iter()
            .map(|c| (format!("sim.us_per_kinstr.{c}"), "us/kinstr")),
    );
    v.extend(
        cells
            .iter()
            .map(|c| (format!("sim.bytes_cloned_per_trial.{c}"), "B")),
    );
    v.push(("inject.arch.trials".into(), "trials"));
    v.extend(
        layers::CLASSES
            .iter()
            .map(|k| (format!("inject.arch.trials.{k}"), "trials")),
    );
    for (name, unit) in [
        ("verify.gate_ms", "ms"),
        ("serve.submit_ms", "ms"),
        ("inject.harness.shard_prepare_ms", "ms"),
        ("inject.harness.shard_run_ms", "ms"),
        ("inject.harness.checkpoint_ms", "ms"),
        ("inject.harness.checkpoints_per_shard", "count"),
        ("serve.prepare_share", "ratio"),
        ("serve.overhead_ms", "ms"),
    ] {
        v.push((name.into(), unit));
    }
    v.extend(cells.iter().map(|c| (format!("serve.job_ms.{c}"), "ms")));
    v.push(("serve.requeued".into(), "count"));
    let figs = layers::SWEEP_FIGURES.map(|(f, _)| f);
    v.extend(figs.iter().map(|f| (format!("bench.sweep.{f}_s"), "s")));
    v.extend(
        figs.iter()
            .map(|f| (format!("bench.sweep.cells.{f}"), "cells")),
    );
    for (name, unit) in [
        ("bench.sweep.cells_per_s", "cells/s"),
        ("sim.timing.cell_ms_p50", "ms"),
        ("sim.timing.cell_ms_max", "ms"),
        ("sim.timing.sim_cycles_per_s", "cycles/s"),
        ("sim.profile.cell_ms_p50", "ms"),
        ("sim.traces.cell_ms_p50", "ms"),
        ("inject.trace.operand_streams_s", "s"),
    ] {
        v.push((name.into(), unit));
    }
    let units = layers::UNITS.map(|(u, _)| u);
    v.extend(
        units
            .iter()
            .map(|u| (format!("gates.attempts_per_s.{u}"), "attempts/s")),
    );
    v.extend(
        units
            .iter()
            .map(|u| (format!("gates.attempts_per_input.{u}"), "attempts")),
    );
    v.push(("gates.inputs_per_s".into(), "inputs/s"));
    v.push(("ecc.sdc_risk_ms".into(), "ms"));
    for m in OVERHEAD_METRICS {
        v.push((format!("bench.trace_overhead.{m}"), "ratio"));
    }
    v
}

/// SplitMix64 finalizer: derives independent sub-seeds from the run seed.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over the canonical output text.
fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Peak resident memory of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Remove every `SWAPCODES_*` variable so no stray override changes the
/// measured program, and return the names removed. Runs before any thread
/// exists.
fn pin_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("SWAPCODES_"))
        .collect();
    for k in &names {
        std::env::remove_var(k);
    }
    names
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let removed = pin_env();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("perfbench: cleared SWAPCODES_* variables: {removed:?}");
    println!(
        "perfbench: effective settings: {}",
        layers::effective_settings()
    );
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} available_parallelism={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get)
    );

    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir.display());
        return ExitCode::from(2);
    }
    let rc = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        out_dir,
    };
    let mut tracer = args.trace.then(Tracer::new);
    let report = match args.workload.as_str() {
        "arch-inproc" => arch::run(&rc, tracer.as_mut()),
        "serve-ci" => serve::run(&rc, tracer.as_mut()),
        _ => figures::run(&rc, tracer.as_mut()),
    };
    let untraced = report.untraced.metrics(true);
    print_e2e("untraced", &report.untraced, &untraced);
    println!(
        "perfbench: outputs digest {:016x} (first pass, seed {})",
        digest(&report.outputs),
        args.seed
    );
    println!(
        "perfbench: failed_frac {} = {} / {} ({})",
        json_number(report.failed as f64 / report.attempted.max(1) as f64),
        report.failed,
        report.attempted,
        report.base
    );

    let metrics: Vec<(String, f64, &'static str)> = match &report.traced {
        None => untraced,
        Some(traced_e2e) => {
            let traced = traced_e2e.metrics(true);
            print_e2e("traced", traced_e2e, &traced);
            let mut measured = report.layers.clone();
            for ((name, u, _), (_, t, _)) in untraced.iter().zip(&traced) {
                if OVERHEAD_METRICS.contains(&name.as_str()) {
                    measured.push((
                        format!("bench.trace_overhead.{name}"),
                        t / u.max(1e-12) - 1.0,
                    ));
                }
            }
            let catalog = per_layer_catalog();
            for (name, _) in &measured {
                assert!(
                    catalog.iter().any(|(n, _)| n == name),
                    "per-layer metric {name} is missing from the catalog"
                );
            }
            if let Some(tr) = &tracer {
                let path = rc
                    .out_dir
                    .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
                match tr.write(&path) {
                    Ok(()) => println!("perfbench: spans written to {}", path.display()),
                    Err(e) => println!("perfbench: could not write spans: {e}"),
                }
            }
            catalog
                .into_iter()
                .map(|(name, unit)| {
                    let v = measured
                        .iter()
                        .find(|(n, _)| *n == name)
                        .map_or(0.0, |&(_, v)| v);
                    (name, v, unit)
                })
                .collect()
        }
    };

    let correct = report.failed == 0;
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        report.attempted.max(1),
        report.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn print_e2e(label: &str, e: &EndToEnd, metrics: &[(String, f64, &'static str)]) {
    for (name, v, unit) in metrics {
        println!("perfbench: {label} {name} = {} {unit}", json_number(*v));
    }
    println!(
        "perfbench: {label} samples: setup {}, jobs {}, passes {}, trials {} over {:.3} s",
        e.setup_s.len(),
        e.jobs_ms.len(),
        e.passes_s.len(),
        e.trials,
        e.passes_s.iter().sum::<f64>()
    );
    println!(
        "perfbench: {label} host factor {} over {} probes (set-up {} over {}; probe reference {} ms)",
        json_number(e.host.factor),
        e.host.samples,
        json_number(e.setup_host.factor),
        e.setup_host.samples,
        host::PROBE_REF_S * 1e3
    );
    for (name, v, unit) in e.metrics(false) {
        println!("perfbench: {label} raw {name} = {} {unit}", json_number(v));
    }
}
