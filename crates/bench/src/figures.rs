//! The figure 12–16 reports as library functions over a shared
//! [`SweepEngine`]: the code the `fig12`–`fig16` benches and perfbench's
//! `figures` workload share.
//!
//! Every report takes a `&SweepEngine`, prewarms exactly the cells it needs
//! (a parallel fan-out), and then renders from cache. Several figures run
//! against one engine — as perfbench's `figures` workload runs them — share
//! every overlapping cell: the fifteen `Baseline` passes run once instead
//! of four times, the four schemes common to fig12 and fig16 once instead
//! of twice, and Figs. 13 and 14 read the passes fig12 ran.

use swapcodes_core::{PredictorSet, Scheme};
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
