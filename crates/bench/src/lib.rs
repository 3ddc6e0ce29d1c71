//! Shared machinery for the figure/table regeneration benches.
//!
//! Every `cargo bench` target in this crate regenerates one table or figure
//! of the SwapCodes paper (or the adder ablation), printing the same
//! rows/series the paper reports; the examples regenerate the extension
//! reports and the committed `BENCH_*.json` files.
//! Absolute numbers differ (the substrate is a simulator, not a Tesla P100),
//! but the comparisons — who wins, by what factor, where the crossovers fall
//! — are the reproduction targets. See `EXPERIMENTS.md` at the workspace
//! root for recorded paper-vs-measured results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use swapcodes_core::{apply, Scheme};
use swapcodes_sim::exec::{ExecConfig, Executor, WarpTrace};
use swapcodes_sim::power::{estimate, PowerEstimate, PowerModel};
use swapcodes_sim::profiler::ProfileCounts;
use swapcodes_sim::timing::{simulate_kernel, simulate_traced, KernelTiming, TimingConfig};
use swapcodes_workloads::Workload;

pub mod figures;
pub mod sweep;

pub use sweep::{SweepEngine, SweepFailure};

/// One cell of the (workload × scheme) matrix.
///
/// A sweep over many cells must keep going when one of them cannot be
/// computed, so a cell distinguishes the *expected* miss (the scheme does
/// not apply to the workload — the paper's §V transparency failures) from a
/// *failure* (structured executor error or a contained panic). Failed cells
/// are skipped by the figure reports and surfaced in the sweep summary
/// instead of aborting the whole matrix.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell<T> {
    /// The computed artefact.
    Value(T),
    /// The scheme does not apply to this workload.
    NotApplicable,
    /// The computation failed; the payload says why.
    Failed(String),
}

impl<T> Cell<T> {
    /// The value, if this cell computed one.
    pub fn value(&self) -> Option<&T> {
        match self {
            Cell::Value(v) => Some(v),
            _ => None,
        }
    }

    /// The failure reason, if the computation failed.
    #[must_use]
    pub fn failure(&self) -> Option<&str> {
        match self {
            Cell::Failed(why) => Some(why),
            _ => None,
        }
    }

    /// Whether this cell holds a value.
    #[must_use]
    pub fn is_value(&self) -> bool {
        matches!(self, Cell::Value(_))
    }

    /// Whether the scheme was inapplicable.
    #[must_use]
    pub fn is_not_applicable(&self) -> bool {
        matches!(self, Cell::NotApplicable)
    }

    /// Whether the computation failed.
    #[must_use]
    pub fn is_failed(&self) -> bool {
        matches!(self, Cell::Failed(_))
    }

    /// Map the value, preserving the miss/failure states.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Cell<U> {
        match self {
            Cell::Value(v) => Cell::Value(f(v)),
            Cell::NotApplicable => Cell::NotApplicable,
            Cell::Failed(why) => Cell::Failed(why),
        }
    }
}

/// Whether the quick mode is enabled (`SWAPCODES_FAST=1`), shrinking
/// campaign sizes so the whole bench suite completes in seconds.
#[must_use]
pub fn fast_mode() -> bool {
    std::env::var("SWAPCODES_FAST").is_ok_and(|v| v == "1")
}

/// Gate-level campaign inputs per unit (paper: 10 000).
#[must_use]
pub fn campaign_inputs() -> usize {
    if fast_mode() {
        400
    } else {
        std::env::var("SWAPCODES_INPUTS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(10_000)
    }
}

/// Simulate a workload under a scheme; `NotApplicable` when the scheme does
/// not apply (inter-thread transparency failures), `Failed` when the fueled
/// simulation reports a structured error.
#[must_use]
pub fn measure(w: &Workload, scheme: Scheme) -> Cell<KernelTiming> {
    let Ok(t) = apply(scheme, &w.kernel, w.launch) else {
        return Cell::NotApplicable;
    };
    let mut mem = w.build_memory();
    let cfg = TimingConfig::default();
    match simulate_kernel(&t.kernel, t.launch, &mut mem, &cfg) {
        Ok(timing) => Cell::Value(timing),
        Err(e) => Cell::Failed(e.to_string()),
    }
}

/// CTAs the Fig. 13 profiles count: the first `PROFILE_CTAS` of the grid
/// (all of it when the grid is smaller).
pub const PROFILE_CTAS: u32 = 4;

/// Dynamic-instruction profile of a workload under a scheme, over the first
/// [`PROFILE_CTAS`] CTAs.
#[must_use]
pub fn profile(w: &Workload, scheme: Scheme) -> Cell<ProfileCounts> {
    let Ok(t) = apply(scheme, &w.kernel, w.launch) else {
        return Cell::NotApplicable;
    };
    let mut mem = w.build_memory();
    let exec = Executor {
        config: ExecConfig {
            cta_limit: Some(PROFILE_CTAS),
            ..ExecConfig::default()
        },
    };
    match exec.run(&t.kernel, t.launch, &mut mem) {
        Ok(out) => Cell::Value(out.profile),
        Err(e) => Cell::Failed(e.to_string()),
    }
}

/// Warp traces of one occupancy wave for power estimation, given the
/// cell's timing: the serial reference for [`SweepEngine::power`].
#[must_use]
pub fn traces_for(w: &Workload, scheme: Scheme, timing: &KernelTiming) -> Cell<Vec<WarpTrace>> {
    let Ok(t) = apply(scheme, &w.kernel, w.launch) else {
        return Cell::NotApplicable;
    };
    let mut mem = w.build_memory();
    let exec = Executor {
        config: ExecConfig {
            collect_trace: true,
            cta_limit: Some(timing.occupancy.ctas.min(t.launch.ctas)),
            ..ExecConfig::default()
        },
    };
    match exec.run(&t.kernel, t.launch, &mut mem) {
        Ok(out) => Cell::Value(out.traces),
        Err(e) => Cell::Failed(e.to_string()),
    }
}

/// Everything the figures read from one (workload, scheme) cell: its Fig. 12
/// timing, Fig. 13 profile and Fig. 14 power estimate, all from one traced
/// pass ([`run_cell`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct CellRun {
    /// Equal to [`measure`]'s.
    pub timing: KernelTiming,
    /// Equal to [`profile`]'s.
    pub profile: ProfileCounts,
    /// The default [`PowerModel`] over the wave's traces, bit-identical to
    /// estimating from [`traces_for`].
    pub power: PowerEstimate,
}

/// One traced timing pass over the occupancy wave or the first
/// [`PROFILE_CTAS`] CTAs, whichever is more, folded into a [`CellRun`]; the
/// traces are dropped on return.
#[must_use]
pub(crate) fn run_cell(w: &Workload, scheme: Scheme) -> Cell<CellRun> {
    let Ok(t) = apply(scheme, &w.kernel, w.launch) else {
        return Cell::NotApplicable;
    };
    let mut mem = w.build_memory();
    let cfg = TimingConfig::default();
    let run = match simulate_traced(&t.kernel, t.launch, &mut mem, &cfg, PROFILE_CTAS) {
        Ok(run) => run,
        Err(e) => return Cell::Failed(e.to_string()),
    };
    // CTAs run one after another in index order, so the first PROFILE_CTAS
    // CTAs' traces are exactly what `profile` executes.
    let mut profile = ProfileCounts::default();
    for trace in run.traces.iter().take_while(|tr| tr.cta < PROFILE_CTAS) {
        for e in &trace.entries {
            profile.record(&t.kernel.instrs()[e.kidx as usize]);
        }
    }
    let power = estimate(&PowerModel::default(), &t.kernel, run.wave(), &run.timing);
    Cell::Value(CellRun {
        timing: run.timing,
        profile,
        power,
    })
}

/// A fixed-width text table printer for the bench reports.
#[derive(Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    #[must_use]
    pub fn new<S: Into<String>>(headers: impl IntoIterator<Item = S>) -> Self {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "ragged table row");
        self.rows.push(row);
    }

    /// Render with aligned columns.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let cols: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect();
            println!("  {}", cols.join("  "));
        };
        line(&self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        println!("  {}", "-".repeat(total));
        for row in &self.rows {
            line(row);
        }
    }
}

/// Arithmetic mean.
#[must_use]
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Format a slowdown multiplier as a percentage over baseline (`1.21` →
/// `"+21%"`).
#[must_use]
pub fn pct_over(x: f64) -> String {
    format!("{:+.0}%", (x - 1.0) * 100.0)
}

/// Print a bench banner.
pub fn banner(title: &str, what: &str) {
    println!("\n=== {title} ===");
    println!("{what}\n");
}
