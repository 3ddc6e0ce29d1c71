//! `figures`: regenerate Figs. 10–16 from cold in one process, 2 threads.
//!
//! Set-up builds the suite and traces its operand streams. A regeneration
//! runs the six gate-level unit campaigns (Fig. 10), evaluates Fig. 11's
//! `sdc_risk` over every code, then walks the Fig. 12→16 cells on a fresh
//! `SweepEngine`. A regeneration is both the job and the pass: the client
//! asks for the figures and waits for all of them. The timing model and
//! gate-netlist evaluation do almost all the work; `inject::arch` does
//! none, so a trial-engine change should leave this workload unchanged.
//! The host-speed probe (see `host`) runs between set-ups and between the
//! stages of a regeneration (each unit campaign, the SDC risk, each
//! figure); a regeneration's time is the sum of its stages.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

use swapcodes_bench::SweepEngine;
use swapcodes_gates::units::UnitKind;
use swapcodes_workloads::Workload;

use crate::host::HostSpeed;
use crate::layers::{self, FIGURE_THREADS, SWEEP_FIGURES, UNITS, UNIT_INPUTS};
use crate::trace::{median, quantile, Tracer};
use crate::{derive_seed, peak_rss_mb, EndToEnd, Report, RunConfig};

/// Times set-up is repeated; `setup_s` is the median.
const SETUP_REPS: usize = 21;
/// Timing cells re-simulated on the reference replay.
const CHECK_CELLS: u64 = 2;
/// Units whose campaigns are re-run at 1 and 2 threads, and on how many
/// inputs.
const CHECK_UNITS: u64 = 2;
const CHECK_INPUTS: usize = 256;

type Streams = HashMap<UnitKind, Vec<[u64; 3]>>;

/// One timed phase and what its last regeneration left behind.
struct Phase {
    e2e: EndToEnd,
    /// Canonical outputs of each regeneration.
    outputs: Vec<String>,
    failed_cells: usize,
    cells: usize,
    engine: SweepEngine,
}

pub fn run(rc: &RunConfig, mut tracer: Option<&mut Tracer>) -> Report {
    let mut host = HostSpeed::new(FIGURE_THREADS);
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut prepared = None;
    for rep in 0..SETUP_REPS as u64 {
        drop(prepared.take());
        host.sample();
        let t = Instant::now();
        let suite = layers::suite();
        let ts = Instant::now();
        let streams = layers::operand_streams(&suite);
        if let Some(tr) = tracer.as_deref_mut() {
            tr.end("inject.trace.operand_streams", "", rep, ts);
        }
        setup_s.push(t.elapsed().as_secs_f64());
        prepared = Some((suite, streams));
    }
    host.sample();
    let setup_host = host.take_factor();
    let (suite, streams) = prepared.expect("set-up ran");
    let gate_seed = derive_seed(rc.seed, 0xF1_6000);

    let mut untraced = timed_phase(&suite, &streams, gate_seed, rc.seconds, &mut host, None);
    untraced.e2e.peak_rss_mb = peak_rss_mb();
    let mut report = Report {
        base: "sweep cells, unit campaigns and checked samples".into(),
        ..Report::default()
    };
    let traced = tracer.map(|tr| {
        let phase = timed_phase(&suite, &streams, gate_seed, rc.seconds, &mut host, Some(tr));
        report.layers = figure_layers(tr, &phase);
        report.layers.extend(cell_layers(&suite, tr));
        phase
    });

    // Every regeneration, traced or not, must reproduce the first one
    // exactly and leave no failed cell.
    let mut failed = 0u64;
    let first = &untraced.outputs[0];
    for phase in std::iter::once(&untraced).chain(&traced) {
        report.attempted += phase.cells as u64;
        if phase.failed_cells > 0 {
            println!(
                "perfbench: CHECK FAILED: {} sweep cells failed",
                phase.failed_cells
            );
            failed += phase.failed_cells as u64;
        }
        if phase.outputs.iter().any(|o| o != first) {
            println!("perfbench: CHECK FAILED: a regeneration's outputs differ from the first");
            failed += 1;
        }
    }

    // Output checks, outside the timed phases.
    let engine = &untraced.engine;
    let timing_cells: Vec<(&Workload, swapcodes_core::Scheme)> = suite
        .iter()
        .flat_map(|w| layers::timing_schemes().into_iter().map(move |s| (w, s)))
        .filter(|&(w, s)| layers::engine_timing(engine, w, s).is_some())
        .collect();
    for k in 0..CHECK_CELLS {
        let (w, s) =
            timing_cells[(derive_seed(rc.seed, 0xCE11 + k) % timing_cells.len() as u64) as usize];
        let fast = layers::engine_timing(engine, w, s);
        let reference = layers::timing_reference(w, s);
        report.attempted += 1;
        if fast != reference {
            println!(
                "perfbench: CHECK FAILED: {} x {} timing differs from the reference replay",
                w.name,
                s.label()
            );
            failed += 1;
        }
    }
    for k in 0..CHECK_UNITS {
        let (label, kind) = UNITS[(derive_seed(rc.seed, 0x0417 + k) % UNITS.len() as u64) as usize];
        let inputs = &streams[&kind][..CHECK_INPUTS.min(streams[&kind].len())];
        let one = layers::unit_campaign(kind, inputs, gate_seed, 1);
        let two = layers::unit_campaign(kind, inputs, gate_seed, FIGURE_THREADS);
        report.attempted += 1;
        if (one.records, one.attempts, one.fully_masked_inputs)
            != (two.records, two.attempts, two.fully_masked_inputs)
        {
            println!("perfbench: CHECK FAILED: {label} campaign differs between 1 and 2 threads");
            failed += 1;
        }
    }
    report.failed = failed;
    report.outputs = first.clone();
    report.traced = traced.map(|p| EndToEnd {
        setup_s: setup_s.clone(),
        setup_host,
        ..p.e2e
    });
    report.untraced = EndToEnd {
        setup_s,
        setup_host,
        ..untraced.e2e
    };
    report
}

/// Regenerate every figure until `seconds` have elapsed (at least once).
fn timed_phase(
    suite: &[Workload],
    streams: &Streams,
    gate_seed: u64,
    seconds: f64,
    host: &mut HostSpeed,
    mut tracer: Option<&mut Tracer>,
) -> Phase {
    let mut e2e = EndToEnd::default();
    let mut outputs = Vec::new();
    let mut failed_cells = 0;
    let mut cells = 0;
    let start = Instant::now();
    let mut regen = 0u64;
    host.sample();
    let engine = loop {
        let mut regen_s = 0.0;
        let mut stage = |host: &mut HostSpeed, t: Instant| {
            regen_s += t.elapsed().as_secs_f64();
            host.sample();
        };
        let mut trials = 0;

        // Fig. 10: the six gate-level unit campaigns.
        let mut results = Vec::with_capacity(UNITS.len());
        for (label, kind) in UNITS {
            let inputs = &streams[&kind][..UNIT_INPUTS.min(streams[&kind].len())];
            let t = Instant::now();
            let res = layers::unit_campaign(kind, inputs, gate_seed, FIGURE_THREADS);
            stage(host, t);
            if let Some(tr) = tracer.as_deref_mut() {
                tr.end("gates.unit_campaign", label, regen, t);
                tr.count("gates.attempts", label, res.attempts);
                tr.count("gates.inputs", label, inputs.len() as u64);
            }
            trials += inputs.len() as u64;
            results.push(res);
        }

        // Fig. 11: SDC risk of every code over the Fig. 10 records.
        let t = Instant::now();
        let risks = layers::sdc_risks(&results);
        stage(host, t);
        if let Some(tr) = tracer.as_deref_mut() {
            tr.end("ecc.sdc_risk", "", regen, t);
        }

        // Figs. 12-16 on a cold engine.
        let t = Instant::now();
        let engine = layers::sweep_engine();
        stage(host, t);
        for (fig, render) in SWEEP_FIGURES {
            let before = layers::cached_cells(&engine);
            let t = Instant::now();
            render(&engine);
            stage(host, t);
            if let Some(tr) = tracer.as_deref_mut() {
                tr.end("bench.sweep", fig, regen, t);
                tr.count(
                    "bench.sweep.cells",
                    fig,
                    (layers::cached_cells(&engine) - before) as u64,
                );
            }
        }
        e2e.jobs_ms.push(regen_s * 1e3);
        e2e.passes_s.push(regen_s);
        e2e.rates.push(trials as f64 / regen_s);
        e2e.trials += trials;
        cells += layers::cached_cells(&engine);
        failed_cells += layers::failed_cells(&engine);

        let mut text = String::new();
        for r in &results {
            let _ = writeln!(
                text,
                "{} {:?} attempts {}",
                r.unit_label,
                r.patterns(),
                r.attempts
            );
        }
        for t in &risks {
            let _ = writeln!(text, "{} {} {}", t.detected, t.sdc, t.benign);
        }
        for w in suite {
            for s in layers::timing_schemes() {
                let cycles = layers::engine_timing(&engine, w, s).map(|t| t.cycles);
                let _ = writeln!(text, "{} {} {cycles:?}", w.name, s.label());
            }
        }
        outputs.push(text);
        regen += 1;
        if start.elapsed().as_secs_f64() >= seconds {
            break engine;
        }
    };
    e2e.host = host.take_factor();
    Phase {
        e2e,
        outputs,
        failed_cells,
        cells,
        engine,
    }
}

/// Per-figure and per-unit metrics of the traced phase.
fn figure_layers(tr: &Tracer, phase: &Phase) -> Vec<(String, f64)> {
    let regens = phase.e2e.passes_s.len().max(1) as f64;
    let mut out = Vec::new();
    let (mut sweep_s, mut sweep_cells) = (0.0, 0u64);
    for (fig, _) in SWEEP_FIGURES {
        let ms = tr.ms("bench.sweep", fig);
        out.push((format!("bench.sweep.{fig}_s"), median(&ms) / 1e3));
        let cells = tr.counter("bench.sweep.cells", fig);
        out.push((format!("bench.sweep.cells.{fig}"), cells as f64 / regens));
        sweep_s += ms.iter().sum::<f64>() / 1e3;
        sweep_cells += cells;
    }
    out.push((
        "bench.sweep.cells_per_s".into(),
        sweep_cells as f64 / sweep_s.max(1e-12),
    ));
    let (mut gate_s, mut inputs) = (0.0, 0u64);
    for (label, _) in UNITS {
        let s: f64 = tr.ms("gates.unit_campaign", label).iter().sum::<f64>() / 1e3;
        let attempts = tr.counter("gates.attempts", label) as f64;
        let n = tr.counter("gates.inputs", label);
        out.push((
            format!("gates.attempts_per_s.{label}"),
            attempts / s.max(1e-12),
        ));
        out.push((
            format!("gates.attempts_per_input.{label}"),
            attempts / n.max(1) as f64,
        ));
        gate_s += s;
        inputs += n;
    }
    out.push((
        "gates.inputs_per_s".into(),
        inputs as f64 / gate_s.max(1e-12),
    ));
    out.push(("ecc.sdc_risk_ms".into(), median(&tr.ms("ecc.sdc_risk", ""))));
    out.push((
        "inject.trace.operand_streams_s".into(),
        median(&tr.ms("inject.trace.operand_streams", "")) / 1e3,
    ));
    out
}

/// Host time of single sweep cells, from computing each cell of the
/// figures' matrices once more, serially, outside the timed phases.
fn cell_layers(suite: &[Workload], tr: &mut Tracer) -> Vec<(String, f64)> {
    let mut cycles = 0u64;
    for w in suite {
        for s in layers::timing_schemes() {
            let t = Instant::now();
            if let Some(timing) = layers::measure(w, s) {
                tr.end("sim.timing", "", 0, t);
                cycles += timing.wave_cycles;
            }
        }
        for s in layers::profile_schemes() {
            let t = Instant::now();
            if layers::profile(w, s) {
                tr.end("sim.profile", "", 0, t);
            }
        }
    }
    let (names, schemes) = layers::trace_cells();
    for w in suite.iter().filter(|w| names.contains(&w.name)) {
        for &s in &schemes {
            if let Some(timing) = layers::measure(w, s) {
                let t = Instant::now();
                if layers::traces(w, s, &timing) {
                    tr.end("sim.traces", "", 0, t);
                }
            }
        }
    }
    let timing_ms = tr.ms("sim.timing", "");
    vec![
        ("sim.timing.cell_ms_p50".into(), median(&timing_ms)),
        ("sim.timing.cell_ms_max".into(), quantile(&timing_ms, 1.0)),
        (
            "sim.timing.sim_cycles_per_s".into(),
            cycles as f64 / (timing_ms.iter().sum::<f64>() / 1e3).max(1e-12),
        ),
        (
            "sim.profile.cell_ms_p50".into(),
            median(&tr.ms("sim.profile", "")),
        ),
        (
            "sim.traces.cell_ms_p50".into(),
            median(&tr.ms("sim.traces", "")),
        ),
    ]
}
