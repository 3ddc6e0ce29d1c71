//! The figure 12–16 reports as library functions over a shared
//! [`SweepEngine`].
//!
//! Each `cargo bench` target used to recompute its own slice of the
//! (workload × scheme) matrix from scratch. The logic now lives here: every
//! report takes a `&SweepEngine`, prewarms exactly the cells it needs (a
//! parallel fan-out), and then renders from cache. Running several figures
//! against one engine — as `examples/perf_baseline.rs` and a combined
//! `cargo bench` session do — shares every overlapping cell: the fifteen
//! `Baseline` passes run once instead of four times, the four schemes
//! common to fig12 and fig16 once instead of twice, and Figs. 13 and 14
//! read the passes fig12 ran.

use swapcodes_core::{apply, PredictorSet, Scheme};
use swapcodes_inject::recovery::{run_recovery_campaign, RecoveryCampaignConfig};
use swapcodes_inject::{
    avf_calibration, control_fault_gap, ArchCampaign, CampaignOptions, FaultClassTallies, FaultMix,
};
use swapcodes_sim::recovery::{RecoveryConfig, RecoverySpec};
use swapcodes_sim::timing::KernelTiming;
use swapcodes_workloads::{all, by_name};

use crate::{banner, mean, pct_over, Cell, SweepEngine, Table};

/// Render one relative-timing cell: a value contributes to the column mean,
/// an inapplicable scheme prints `n/a`, and a failed cell prints `FAIL`
/// (details go to the engine's failure summary) so the rest of the figure
/// still renders.
fn rel_cell(cell: &Cell<KernelTiming>, base: &KernelTiming, sums: &mut Vec<f64>) -> String {
    match cell {
        Cell::Value(t) => {
            let rel = t.relative_to(base);
            sums.push(rel);
            pct_over(rel)
        }
        Cell::NotApplicable => "n/a".to_owned(),
        Cell::Failed(_) => "FAIL".to_owned(),
    }
}

/// Figure 12: runtime of SW-Dup, Swap-ECC and the Swap-Predict variants
/// relative to the un-duplicated program, per benchmark and mean.
pub fn fig12_performance(engine: &SweepEngine) {
    banner(
        "Figure 12 — SwapCodes performance",
        "Runtime relative to the original program on the simulated SM \
         (paper means: SW-Dup +49%, Swap-ECC +21%, Pre AddSub +16%, Pre MAD +15%).",
    );

    let workloads = all();
    let schemes = Scheme::figure12_sweep();
    let mut matrix = vec![Scheme::Baseline];
    matrix.extend_from_slice(&schemes);
    engine.prewarm(&workloads, &matrix);

    let mut headers = vec![
        "benchmark".to_owned(),
        "regs".to_owned(),
        "warps".to_owned(),
    ];
    headers.extend(schemes.iter().map(Scheme::label));
    let mut table = Table::new(headers);

    let mut sums: Vec<Vec<f64>> = vec![Vec::new(); schemes.len()];
    for w in &workloads {
        let base = engine.timing(w, Scheme::Baseline);
        let Some(base) = base.value() else {
            let mut cells = vec![w.name.to_owned(), String::new(), String::new()];
            cells.extend(schemes.iter().map(|_| "FAIL".to_owned()));
            table.row(cells);
            continue;
        };
        let mut cells = vec![
            w.name.to_owned(),
            w.kernel.register_count().to_string(),
            base.occupancy.warps.to_string(),
        ];
        for (i, &s) in schemes.iter().enumerate() {
            cells.push(rel_cell(&engine.timing(w, s), base, &mut sums[i]));
        }
        table.row(cells);
    }
    let mut mean_cells = vec!["MEAN".to_owned(), String::new(), String::new()];
    for col in &sums {
        mean_cells.push(pct_over(mean(col)));
    }
    table.row(mean_cells);
    table.print();
    engine.print_failure_summary();
}

/// Figure 13: dynamic instruction bloat of each scheme, broken into the
/// paper's categories, measured through the instruction-classifying
/// profiler.
pub fn fig13_instruction_bloat(engine: &SweepEngine) {
    banner(
        "Figure 13 — dynamic instruction bloat",
        "Per-category dynamic instructions relative to the original program \
         (paper means: SW-Dup 191%, Swap-ECC 163%, Pre AddSub 145%, Pre MAD 133%; \
         checking code alone is 11-35% of the original program).",
    );

    let workloads = all();
    let schemes = Scheme::figure12_sweep();
    engine.prewarm(&workloads, &schemes);

    let mut table = Table::new(vec![
        "benchmark",
        "scheme",
        "total",
        "not-elig",
        "predicted",
        "duplicated",
        "compiler",
        "checking",
    ]);

    let mut totals: Vec<Vec<f64>> = vec![Vec::new(); schemes.len()];
    for w in &workloads {
        for (i, &s) in schemes.iter().enumerate() {
            let cell = engine.profile(w, s);
            let Some(p) = cell.value() else {
                table.row(vec![
                    w.name.to_owned(),
                    s.label(),
                    if cell.is_failed() { "FAIL" } else { "n/a" }.to_owned(),
                    String::new(),
                    String::new(),
                    String::new(),
                    String::new(),
                    String::new(),
                ]);
                continue;
            };
            let orig = p.original_program() as f64;
            let pc = |x: u64| format!("{:.0}%", x as f64 / orig * 100.0);
            totals[i].push(p.total() as f64 / orig);
            table.row(vec![
                w.name.to_owned(),
                s.label(),
                format!("{:.0}%", p.bloat() * 100.0),
                pc(p.not_eligible),
                pc(p.eligible_predicted),
                pc(p.eligible_plain + p.shadow),
                pc(p.compiler_inserted),
                pc(p.checking),
            ]);
        }
    }
    table.print();

    println!();
    for (i, &s) in schemes.iter().enumerate() {
        let m = mean(&totals[i]);
        println!("  mean total bloat {:<12} {:>5.0}%", s.label(), m * 100.0);
    }
    engine.print_failure_summary();
}

/// Figure 14: estimated GPU power and energy overheads for the two
/// highest-utilisation workloads (the paper uses SNAP and lavaMD-class
/// kernels).
pub fn fig14_power_energy(engine: &SweepEngine) {
    banner(
        "Figure 14 — power and energy overheads",
        "Relative GPU power and energy vs the original program (paper: worst-\
         case +15% power for every scheme; energy tracks the slowdown, e.g. \
         SNAP >2x energy under SW-Dup but only ~1.11x under Swap-ECC).",
    );

    let schemes = [
        Scheme::SwDup,
        Scheme::SwapEcc,
        Scheme::SwapPredict(PredictorSet::MAD),
    ];
    let workloads: Vec<_> = ["snap", "lavaMD"]
        .iter()
        .map(|n| by_name(n).expect("workload exists"))
        .collect();
    let mut matrix = vec![Scheme::Baseline];
    matrix.extend_from_slice(&schemes);
    engine.prewarm(&workloads, &matrix);

    let mut table = Table::new(vec!["benchmark", "scheme", "power", "energy", "runtime"]);
    for w in &workloads {
        let (Cell::Value(base), Cell::Value(btiming)) = (
            engine.power(w, Scheme::Baseline),
            engine.timing(w, Scheme::Baseline),
        ) else {
            table.row(vec![
                w.name.to_owned(),
                "(baseline)".to_owned(),
                "FAIL".to_owned(),
                String::new(),
                String::new(),
            ]);
            continue;
        };
        for scheme in schemes {
            let power = engine.power(w, scheme);
            let (Cell::Value(est), Cell::Value(timing)) = (&power, engine.timing(w, scheme)) else {
                table.row(vec![
                    w.name.to_owned(),
                    scheme.label(),
                    if power.is_failed() { "FAIL" } else { "n/a" }.to_owned(),
                    String::new(),
                    String::new(),
                ]);
                continue;
            };
            table.row(vec![
                w.name.to_owned(),
                scheme.label(),
                format!("{:.2}x", est.power_rel(&base)),
                format!(
                    "{:.2}x",
                    est.energy_rel(&base) * timing.waves_fractional() / btiming.waves_fractional()
                ),
                format!("{:.2}x", timing.relative_to(&btiming)),
            ]);
        }
    }
    table.print();
    engine.print_failure_summary();
}

/// Figure 15: inter-thread (warp-splitting) duplication performance, with
/// and without checking instructions, against the intra-thread baseline.
pub fn fig15_interthread(engine: &SweepEngine) {
    banner(
        "Figure 15 — inter-thread duplication",
        "Runtime relative to the original program (paper: inter-thread mean \
         +113% / worst +241%, vs intra-thread +49% / +99%; removing checking \
         still leaves +57% / +114%, so intra-thread is the stronger baseline; \
         matmul and SNAP are not transformable at all).",
    );

    let workloads = all();
    let schemes = [
        Scheme::InterThread { checked: true },
        Scheme::InterThread { checked: false },
        Scheme::SwDup,
    ];
    let mut matrix = vec![Scheme::Baseline];
    matrix.extend_from_slice(&schemes);
    engine.prewarm(&workloads, &matrix);

    let mut table = Table::new(vec![
        "benchmark",
        "Inter-Thread",
        "Inter (no checks)",
        "SW-Dup (intra)",
    ]);
    let mut sums: Vec<Vec<f64>> = vec![Vec::new(); 3];
    for w in &workloads {
        let base = engine.timing(w, Scheme::Baseline);
        let Some(base) = base.value() else {
            let mut cells = vec![w.name.to_owned()];
            cells.extend(schemes.iter().map(|_| "FAIL".to_owned()));
            table.row(cells);
            continue;
        };
        let mut cells = vec![w.name.to_owned()];
        for (i, &s) in schemes.iter().enumerate() {
            cells.push(rel_cell(&engine.timing(w, s), base, &mut sums[i]));
        }
        table.row(cells);
    }
    let mut mean_cells = vec!["MEAN (where applicable)".to_owned()];
    for col in &sums {
        mean_cells.push(pct_over(mean(col)));
    }
    table.row(mean_cells);
    table.print();
    engine.print_failure_summary();
}

/// Figure 16: Swap-Predict with plausible future check-bit predictors.
pub fn fig16_future_predictors(engine: &SweepEngine) {
    banner(
        "Figure 16 — future check-bit predictors",
        "Runtime relative to the original program (paper: mean falls from \
         +15% with Pre MAD to +5% with Fp-MAD, and the lavaMD worst case \
         from +74% to +28%, motivating floating-point predictors).",
    );

    let workloads = all();
    let schemes = Scheme::figure16_sweep();
    let mut matrix = vec![Scheme::Baseline];
    matrix.extend_from_slice(&schemes);
    engine.prewarm(&workloads, &matrix);

    let mut headers = vec!["benchmark".to_owned()];
    headers.extend(schemes.iter().map(Scheme::label));
    let mut table = Table::new(headers);

    let mut sums: Vec<Vec<f64>> = vec![Vec::new(); schemes.len()];
    let mut worst: Vec<(f64, String)> = vec![(0.0, String::new()); schemes.len()];
    for w in &workloads {
        let base = engine.timing(w, Scheme::Baseline);
        let Some(base) = base.value() else {
            let mut cells = vec![w.name.to_owned()];
            cells.extend(schemes.iter().map(|_| "FAIL".to_owned()));
            table.row(cells);
            continue;
        };
        let mut cells = vec![w.name.to_owned()];
        for (i, &s) in schemes.iter().enumerate() {
            match engine.timing(w, s) {
                Cell::Value(t) => {
                    let rel = t.relative_to(base);
                    sums[i].push(rel);
                    if rel > worst[i].0 {
                        worst[i] = (rel, w.name.to_owned());
                    }
                    cells.push(pct_over(rel));
                }
                Cell::NotApplicable => cells.push("n/a".to_owned()),
                Cell::Failed(_) => cells.push("FAIL".to_owned()),
            }
        }
        table.row(cells);
    }
    let mut mean_cells = vec!["MEAN".to_owned()];
    for col in &sums {
        mean_cells.push(pct_over(mean(col)));
    }
    table.row(mean_cells);
    table.print();
    println!();
    for (i, s) in schemes.iter().enumerate() {
        println!(
            "  worst case {:<12} {} ({})",
            s.label(),
            pct_over(worst[i].0),
            worst[i].1
        );
    }
    engine.print_failure_summary();
}

/// Static protection coverage: what the dataflow verifier can *prove* about
/// each transformed kernel, with no injection trials at all. The companion
/// to the injection-measured coverage of Figs. 10–11: dynamic campaigns
/// sample the fault space, the verifier exhausts the path space.
pub fn static_coverage_report() {
    banner(
        "Static protection coverage",
        "Per-scheme verified coverage points (dataflow proof over the \
         transformed kernel; 'n/a' = scheme not applicable). Any finding \
         would print below its row — a clean suite prints none.",
    );

    let workloads = all();
    let schemes = [
        Scheme::SwDup,
        Scheme::SwapEcc,
        Scheme::SwapPredict(PredictorSet::ADD_SUB),
        Scheme::SwapPredict(PredictorSet::MAD),
        Scheme::InterThread { checked: true },
    ];

    let mut headers = vec!["benchmark".to_owned()];
    headers.extend(schemes.iter().map(Scheme::label));
    let mut table = Table::new(headers);

    let mut dirty = Vec::new();
    for w in &workloads {
        let mut cells = vec![w.name.to_owned()];
        for &s in &schemes {
            let Ok(t) = apply(s, &w.kernel, w.launch) else {
                cells.push("n/a".to_owned());
                continue;
            };
            let report = swapcodes_verify::verify(s, &t.kernel);
            cells.push(format!(
                "{}/{}",
                report.coverage.covered, report.coverage.points
            ));
            if !report.is_clean() {
                dirty.push(format!("{} x {}: {report}", w.name, report.scheme));
            }
        }
        table.row(cells);
    }
    table.print();
    for d in &dirty {
        println!("  FINDING {d}");
    }
    assert!(dirty.is_empty(), "static verification found holes");
}

/// Detect-and-recover report: DUE→recovered conversion, recovery cycle
/// overhead and (for the opt-in correction mode) the miscorrection rate,
/// per workload and scheme.
///
/// Two passes per cell:
///
/// 1. **Safe ladder** (warp replay → kernel relaunch, no storage
///    correction): the deployment mode. Recovery here can only turn
///    detections into verified-correct completions — a miscorrection in
///    this table would be a bug.
/// 2. **Correction-enabled ladder** (Swap-ECC only): the experiment
///    quantifying why in-place correction under swapped codewords is a
///    gamble — roughly the shadow-strike half of correctable syndromes
///    rewrite good data toward faulty check bits.
///
/// # Panics
///
/// Panics when a requested workload is unknown or a scheme fails to
/// prepare (the cells here are all stock-transform combinations).
pub fn recovery_report(names: &[&str], trials: u32, seed: u64) {
    banner(
        "Detect-and-recover",
        "Fraction of detection-bearing trials converted into verified-\
         correct completions by the bounded ladder (replay -> relaunch), \
         with the recovery cycle overhead per trial. 'degraded' marks \
         Swap-Predict cells that fell back to SW-Dup.",
    );

    let schemes = [
        Scheme::SwDup,
        Scheme::SwapEcc,
        Scheme::SwapPredict(PredictorSet::MAD),
    ];
    let cfg = RecoveryCampaignConfig::default();

    let mut headers = vec!["benchmark".to_owned()];
    for s in &schemes {
        headers.push(format!("{} rec%", s.label()));
        headers.push(format!("{} ovh/trial", s.label()));
    }
    let mut table = Table::new(headers);
    let mut recovered_total = 0u64;
    let mut miscorrected_total = 0u64;
    for name in names {
        let w = by_name(name).expect("known workload");
        let mut cells = vec![w.name.to_owned()];
        for &s in &schemes {
            let cell = run_recovery_campaign(&w, s, trials, seed, &cfg).expect("cell prepares");
            recovered_total += cell.outcomes.recovered();
            miscorrected_total += cell.outcomes.miscorrected;
            let tag = if cell.degraded { " (degraded)" } else { "" };
            cells.push(format!("{:.0}%{tag}", cell.recovered_fraction() * 100.0));
            cells.push(format!("{:.0}cy", cell.mean_overhead_cycles()));
        }
        table.row(cells);
    }
    table.print();
    println!(
        "  {recovered_total} detections recovered across the sweep, \
         {miscorrected_total} recovery-induced SDCs (must be 0 in safe mode)"
    );

    banner(
        "In-place storage correction (opt-in, Swap-ECC)",
        "The same cells with correctable DUE syndromes rewritten in place. \
         Under swapped codewords a shadow-side strike lands in the check \
         bits, so correction rewrites good data toward them: the \
         miscorrection rate is the price of skipping replay.",
    );
    let correcting = RecoveryCampaignConfig {
        recovery: RecoveryConfig {
            spec: RecoverySpec {
                storage_correction: true,
                ..RecoverySpec::default()
            },
            ..RecoveryConfig::default()
        },
        ..RecoveryCampaignConfig::default()
    };
    let mut ctable = Table::new(vec![
        "benchmark".to_owned(),
        "corrected".to_owned(),
        "miscorrected".to_owned(),
        "miscorrection rate".to_owned(),
    ]);
    for name in names {
        let w = by_name(name).expect("known workload");
        let cell =
            run_recovery_campaign(&w, Scheme::SwapEcc, trials, seed, &correcting).expect("cell");
        ctable.row(vec![
            w.name.to_owned(),
            cell.outcomes.recovered_correct.to_string(),
            cell.outcomes.miscorrected.to_string(),
            format!("{:.1}%", cell.miscorrection_rate() * 100.0),
        ]);
    }
    ctable.print();
}

/// Fault-model taxonomy report: detection coverage per fault class under a
/// mixed transient / control-state / stuck-at campaign, then the
/// control-fault coverage gap of statically-clean kernels.
///
/// The first table samples every trial's class from an equal-weight
/// [`FaultMix::all_classes`] draw: burst-capable datapath transients,
/// control-state strikes (predicate registers, active masks, barrier
/// counters, scheduler slots) and area-weighted stuck-at sites from the
/// FxpMad32 netlist that persist across kernel relaunch. Each cell prints
/// the per-class coverage so the reader sees directly which classes a
/// register-file code can and cannot catch.
///
/// The second table is the boundary measurement: under a control-only mix,
/// kernels whose dataflow proof is *clean* still leak SDCs, because the
/// static argument covers datapath values, not the machine state steering
/// them. The gap column is `1 - dynamic coverage` over unmasked control
/// faults.
///
/// # Panics
///
/// Panics when a requested workload is unknown, a scheme fails to prepare,
/// or a class bucket loses a trial (the bucket sum must equal the trial
/// count).
pub fn fault_taxonomy_report(names: &[&str], trials: u64, seed: u64) {
    banner(
        "Fault-model taxonomy",
        "Detection coverage per fault class (transient/control/stuck-at, \
         equal-weight mixed draw). Control-state strikes hit predicates, \
         active masks, barrier counters and scheduler slots; stuck-at \
         sites are drawn area-weighted from the FxpMad32 netlist and \
         persist across relaunch.",
    );

    let schemes = [
        Scheme::SwDup,
        Scheme::SwapEcc,
        Scheme::SwapPredict(PredictorSet::MAD),
    ];
    let opts = CampaignOptions {
        mix: FaultMix::all_classes(),
        ..CampaignOptions::default()
    };

    let mut headers = vec!["benchmark".to_owned()];
    for s in &schemes {
        headers.push(format!("{} t/c/s cov%", s.label()));
    }
    let mut table = Table::new(headers);
    let mut totals = FaultClassTallies::default();
    for name in names {
        let w = by_name(name).expect("known workload");
        let mut cells = vec![w.name.to_owned()];
        for &s in &schemes {
            let campaign = ArchCampaign::prepare_with(&w, s, seed, opts).expect("cell prepares");
            let classes = campaign.run_range_classed(0, trials);
            assert_eq!(
                classes.total(),
                trials,
                "class buckets must account for every trial"
            );
            let [t, c, st] = classes.classes().map(|(_, o)| o.coverage() * 100.0);
            cells.push(format!("{t:.0}/{c:.0}/{st:.0}"));
            totals.merge(&classes);
        }
        table.row(cells);
    }
    table.print();
    for (label, o) in totals.classes() {
        println!(
            "  {label:<9} {:>5} trials: {:.1}% covered, {} masked, {} SDC, {} hang",
            o.total(),
            o.coverage() * 100.0,
            o.masked,
            o.sdc,
            o.hang
        );
    }

    banner(
        "Control-fault coverage gap",
        "Statically-clean kernels under a control-only mix: the dataflow \
         proof covers datapath values, so corrupted control state can \
         still complete with wrong output. The gap is 1 - dynamic \
         coverage over unmasked control faults.",
    );
    let mut gtable = Table::new(vec![
        "benchmark".to_owned(),
        "scheme".to_owned(),
        "static".to_owned(),
        "dyn cov%".to_owned(),
        "gap%".to_owned(),
        "sdc escapes".to_owned(),
    ]);
    for name in names {
        let w = by_name(name).expect("known workload");
        let v = control_fault_gap(&w, Scheme::SwapEcc, trials, seed).expect("gap cell prepares");
        gtable.row(vec![
            w.name.to_owned(),
            Scheme::SwapEcc.label(),
            if v.report.is_clean() {
                "clean"
            } else {
                "dirty"
            }
            .to_owned(),
            format!("{:.1}", v.outcomes.coverage() * 100.0),
            format!("{:.1}", v.gap() * 100.0),
            v.escapes.len().to_string(),
        ]);
    }
    gtable.print();
}

/// Predicted-vs-measured AVF report: the static analyzer's coverage
/// prediction for every (workload, scheme, fault class) cell next to a
/// fresh injection measurement, with the Wilson 95% interval the
/// prediction must land in (or the documented per-class tolerance).
///
/// This is the calibration table for `swapcodes_verify::avf`: the
/// analyzer builds ACE windows from static liveness and a fault-free
/// issue profile — no injection trials — and the campaign here is the
/// ground truth it is scored against. A `MISS` in the last column would
/// fail the oracle gate in CI.
///
/// # Panics
///
/// Panics when a calibration cell fails to prepare (all cells are stock
/// workload x scheme combinations) or a prediction misses its gate.
pub fn avf_report(trials: u64, seed: u64) {
    banner(
        "Predicted vs. measured vulnerability (AVF calibration)",
        "Static liveness ACE windows x scheme protection windows predict \
         per-class coverage; each prediction is gated against a fresh \
         injection measurement (inside the Wilson 95% interval, or within \
         the per-class tolerance).",
    );

    let verdict = avf_calibration(trials, seed).expect("calibration cells prepare");
    let mut table = Table::new(vec![
        "benchmark".to_owned(),
        "scheme".to_owned(),
        "class".to_owned(),
        "pred%".to_owned(),
        "meas%".to_owned(),
        "wilson95%".to_owned(),
        "unmasked".to_owned(),
        "gate".to_owned(),
    ]);
    for cell in &verdict.cells {
        table.row(vec![
            cell.workload.clone(),
            cell.scheme.clone(),
            cell.class.to_owned(),
            format!("{:.1}", cell.predicted * 100.0),
            format!("{:.1}", cell.measured * 100.0),
            format!("{:.0}-{:.0}", cell.wilson.0 * 100.0, cell.wilson.1 * 100.0),
            cell.unmasked.to_string(),
            if cell.within() { "ok" } else { "MISS" }.to_owned(),
        ]);
    }
    table.print();
    println!(
        "  {} cells x {} trials; control-SDC escape attribution on \
         matmul x swap-ecc: {}/{} listed by the ranked site report",
        verdict.cells.len(),
        verdict.trials_per_cell,
        verdict.escapes_listed,
        verdict.escapes_total,
    );
    assert!(
        verdict.all_within(),
        "an AVF prediction missed its calibration gate"
    );
}
